package persist

import (
	"reflect"
	"testing"
)

// FuzzDecodeCheckpoint is the standing fuzz harness for the one durable
// format, which is also the replica wire format: DecodeCheckpoint must
// never panic on any input, and any blob it accepts must re-encode and
// decode to an equal Checkpoint. The committed corpus under
// testdata/fuzz/FuzzDecodeCheckpoint holds a real state blob of each
// serve-mix registry model and of an inline program (coverage
// exploration, budget 16, seed 7).
//
//	go test -run '^$' -fuzz '^FuzzDecodeCheckpoint$' -fuzztime 30s ./internal/serve/persist/
func FuzzDecodeCheckpoint(f *testing.F) {
	blob, err := EncodeCheckpoint(testCheckpoint(3, 2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(ckptMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		again, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		back, err := DecodeCheckpoint(again)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !reflect.DeepEqual(normalized(back), normalized(ck)) {
			t.Fatalf("round trip changed the checkpoint:\n got  %+v\n want %+v", back, ck)
		}
	})
}

// normalized maps empty slices to nil: the encoder omits empty lists,
// so "[]" and an absent field decode differently but mean the same.
func normalized(ck Checkpoint) Checkpoint {
	if len(ck.Reports) == 0 {
		ck.Reports = nil
	}
	if len(ck.Source.Inputs) == 0 {
		ck.Source.Inputs = nil
	}
	if len(ck.State.Pairs) == 0 {
		ck.State.Pairs = nil
	}
	if len(ck.State.Seen) == 0 {
		ck.State.Seen = nil
	}
	return ck
}
