package persist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEncodeDecodeCheckpoint: the state-exchange blob round-trips and
// is byte-identical to what Write lays down in the CHECKPOINT file —
// the wire format IS the disk format.
func TestEncodeDecodeCheckpoint(t *testing.T) {
	ck := testCheckpoint(3, 2)
	blob, err := EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != ck.Key || got.Seq != ck.Seq || got.Submissions != ck.Submissions ||
		got.Version != Version || len(got.Reports) != len(ck.Reports) {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := write(s, ck); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(s.programDir(testKey), "CHECKPOINT"))
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(blob) {
		t.Fatalf("CHECKPOINT file (%d bytes) differs from EncodeCheckpoint blob (%d bytes)", len(onDisk), len(blob))
	}
}

// TestDecodeCheckpointRejectsDamage: every class of blob damage the
// replica client must survive is detected by the decoder.
func TestDecodeCheckpointRejectsDamage(t *testing.T) {
	blob, err := EncodeCheckpoint(testCheckpoint(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       nil,
		"short":       blob[:4],
		"bad magic":   append([]byte("NOTMAGIC"), blob[magicLen:]...),
		"truncated":   blob[:len(blob)-7],
		"trailing":    append(append([]byte{}, blob...), 0xFF),
		"flipped bit": flipBit(blob, 150),
	}
	for name, data := range cases {
		if _, err := DecodeCheckpoint(data); err == nil {
			t.Errorf("%s: decode accepted damaged blob", name)
		}
	}
}

func flipBit(b []byte, bit int) []byte {
	out := append([]byte{}, b...)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// TestCheckpointBlob: the raw-file read path a replica serves evicted
// programs from validates what it returns and rejects a blob filed
// under the wrong key.
func TestCheckpointBlob(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := write(s, testCheckpoint(5, 4)); err != nil {
		t.Fatal(err)
	}

	blob, ck, err := s.CheckpointBlob(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Seq != 5 || len(blob) == 0 {
		t.Fatalf("blob seq %d len %d", ck.Seq, len(blob))
	}
	if _, _, err := s.CheckpointBlob(strings.Repeat("b", 64)); err == nil {
		t.Fatal("missing program returned a blob")
	}

	// A blob whose embedded key disagrees with its directory must not
	// be served (it would poison a peer under the wrong identity).
	wrong := strings.Repeat("c", 64)
	if err := os.MkdirAll(s.programDir(wrong), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.programDir(wrong), "CHECKPOINT"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.CheckpointBlob(wrong); err == nil {
		t.Fatal("mis-keyed blob served")
	}
}

// BenchmarkWriteCheckpoint measures the per-job durability path:
// encode + temp-file write + fsync + rename + directory fsync.
// ReportAllocs pins the encode-buffer pooling.
func BenchmarkWriteCheckpoint(b *testing.B) {
	s, _, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	ck := testCheckpoint(100, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(s, ck); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeCheckpoint covers the checkpoint/state-blob encode
// path shared by checkpoint writes and replica state serving.
func BenchmarkEncodeCheckpoint(b *testing.B) {
	ck := testCheckpoint(100, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeCheckpoint(ck); err != nil {
			b.Fatal(err)
		}
	}
}
