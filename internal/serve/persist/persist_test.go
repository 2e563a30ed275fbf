package persist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/sched"
)

const testKey = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"

func testCheckpoint(seq uint64, submissions int) Checkpoint {
	return Checkpoint{
		Key:         testKey,
		Name:        "test/prog",
		Source:      ProgramSource{Program: "module m\n", Inputs: []int64{1, 2}},
		ModuleFP:    "deadbeef",
		Seq:         seq,
		Submissions: submissions,
		Reports:     []string{"r0"},
		State: sched.StateSnapshot{
			Pairs:        []sched.StablePair{{FromFn: "f", FromIx: submissions, ToFn: "g", ToIx: 0}},
			Seen:         []string{"r0"},
			Explorations: submissions,
		},
	}
}

// write encodes ck and writes it as its key's checkpoint.
func write(s *Store, ck Checkpoint) error {
	blob, err := EncodeCheckpoint(ck)
	if err != nil {
		return err
	}
	return s.Write(ck.Key, blob)
}

func counterVal(c *metrics.Collector, name string) int64 {
	for _, cr := range c.Snapshot().Counters {
		if cr.Name == name {
			return cr.Value
		}
	}
	return 0
}

// TestCheckpointRoundTrip: write, overwrite, reopen — recovery hands
// back exactly the last checkpoint written, through both the boot path
// (Open) and the lazy-rehydrate path (Load).
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mc := metrics.New()
	s, recovered, err := Open(dir, Options{Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh dir recovered %d programs", len(recovered))
	}
	if err := write(s, testCheckpoint(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := write(s, testCheckpoint(3, 4)); err != nil {
		t.Fatal(err)
	}
	if got := counterVal(mc, "serve.persist_checkpoints"); got != 2 {
		t.Errorf("persist_checkpoints = %d, want 2", got)
	}

	mc = metrics.New()
	s, recovered, err = Open(dir, Options{Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d programs, want 1", len(recovered))
	}
	ck := recovered[0]
	if ck.Key != testKey || ck.Seq != 3 || ck.Submissions != 4 || ck.ModuleFP != "deadbeef" ||
		ck.State.Pairs[0].FromIx != 4 {
		t.Fatalf("checkpoint = %+v, want the second write", ck)
	}
	if got := counterVal(mc, "serve.persist_recovered"); got != 1 {
		t.Errorf("persist_recovered = %d", got)
	}
	loaded, err := s.Load(testKey)
	if err != nil || loaded == nil || loaded.Seq != 3 {
		t.Fatalf("Load = %+v, %v", loaded, err)
	}
	if missing, err := s.Load(strings.Repeat("b", 64)); missing != nil || err != nil {
		t.Fatalf("Load of an absent key = %+v, %v; want nil, nil", missing, err)
	}
}

// TestBitFlipDetected: a flipped bit in a checkpoint quarantines the
// program instead of serving silently-wrong coverage.
func TestBitFlipDetected(t *testing.T) {
	t.Run("checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		plan := &faultinject.Plan{Rules: []faultinject.Rule{
			{Stage: "persist.checkpoint.write", Run: -1, Kind: faultinject.KindBitFlip, Bit: 300},
		}}
		s, _, _ := Open(dir, Options{Faults: plan})
		if err := write(s, testCheckpoint(0, 1)); err != nil {
			t.Fatal(err)
		}
		mc := metrics.New()
		_, recovered, err := Open(dir, Options{Metrics: mc})
		if err != nil {
			t.Fatal(err)
		}
		if len(recovered) != 0 {
			t.Fatalf("corrupt checkpoint recovered: %+v", recovered[0])
		}
		if counterVal(mc, "serve.persist_quarantined") != 1 {
			t.Error("corrupt checkpoint not counted")
		}
		if _, err := os.Stat(filepath.Join(dir, "quarantine")); err != nil {
			t.Errorf("no quarantine dir: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, "programs", testKey)); !os.IsNotExist(err) {
			t.Error("corrupt program still under programs/")
		}
	})
}

// TestTornCheckpointQuarantined: a torn checkpoint write (the kill -9
// page-cache case — reported as success, half the bytes on disk) fails
// validation at the next boot and is quarantined, never half-loaded.
func TestTornCheckpointQuarantined(t *testing.T) {
	dir := t.TempDir()
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: "persist.checkpoint.write", Run: 1, Kind: faultinject.KindTornWrite},
	}}
	s, _, _ := Open(dir, Options{Faults: plan})
	for i := 1; i <= 2; i++ { // the second write (run seq 1) tears silently
		if err := write(s, testCheckpoint(uint64(i), i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	mc := metrics.New()
	_, recovered, err := Open(dir, Options{Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 || counterVal(mc, "serve.persist_quarantined") != 1 {
		t.Fatalf("torn checkpoint: recovered %d, quarantined %d; want 0, 1",
			len(recovered), counterVal(mc, "serve.persist_quarantined"))
	}
}

// TestFailedCheckpointKeepsPrevious: faults that report errors make
// Write fail cleanly — the previous checkpoint stays in place, no temp
// file is left behind, and the next write carries the full state
// again. A failed first write leaves no program directory at all.
func TestFailedCheckpointKeepsPrevious(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stage string
		kind  faultinject.Kind
		// landed: the fault strikes after the rename, so the new
		// checkpoint is in place although Write reports the error.
		landed bool
	}{
		{"short-write", "persist.checkpoint.write", faultinject.KindShortWrite, false},
		{"fsync-error", "persist.checkpoint.fsync", faultinject.KindFsyncError, false},
		{"dir-fsync-error", "persist.dir.fsync", faultinject.KindFsyncError, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			plan := &faultinject.Plan{Rules: []faultinject.Rule{{Stage: tc.stage, Run: 1, Kind: tc.kind}}}
			s, _, _ := Open(dir, Options{Faults: plan})
			if err := write(s, testCheckpoint(1, 1)); err != nil {
				t.Fatal(err)
			}
			if err := write(s, testCheckpoint(2, 2)); err == nil {
				t.Fatal("faulted write reported success")
			}
			if _, err := os.Stat(filepath.Join(dir, "programs", testKey, "CHECKPOINT.tmp")); !os.IsNotExist(err) {
				t.Error("failed write left its temp file behind")
			}
			want := uint64(1)
			if tc.landed {
				want = 2
			}
			if ck, err := s.Load(testKey); err != nil || ck == nil || ck.Seq != want {
				t.Fatalf("after the failed write Load = %+v, %v; want seq %d", ck, err, want)
			}
			if err := write(s, testCheckpoint(3, 3)); err != nil {
				t.Fatalf("write after the fault: %v", err)
			}
			_, recovered, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(recovered) != 1 || recovered[0].Seq != 3 {
				t.Fatalf("recovered = %+v, want the third write", recovered)
			}

			other := testCheckpoint(0, 0)
			other.Key = strings.Repeat("b", 64)
			first := &faultinject.Plan{Rules: []faultinject.Rule{{Stage: tc.stage, Run: 0, Kind: tc.kind}}}
			s, _, _ = Open(dir, Options{Faults: first})
			if err := write(s, other); err == nil {
				t.Fatal("faulted first write reported success")
			}
			_, err = os.Stat(s.programDir(other.Key))
			if tc.landed != (err == nil) {
				t.Errorf("failed first write: program dir present = %v, want %v", err == nil, tc.landed)
			}
		})
	}
}

// TestNoPlanNoFaultCounters: the per-(program, op) fault sequence is
// counted only when a fault plan is set, so a fault-free store does not
// grow an entry for every program it ever wrote.
func TestNoPlanNoFaultCounters(t *testing.T) {
	s, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ck := testCheckpoint(0, 1)
		ck.Key = strings.Repeat(string(rune('a'+i)), 64)
		if err := write(s, ck); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.seq); n != 0 {
		t.Fatalf("fault-free store holds %d fault-sequence entries, want 0", n)
	}
}

// TestFsck: a state dir with one healthy program carrying leftover
// files and one corrupt checkpoint fscks to the right accounting, and
// a subsequent Open recovers cleanly.
func TestFsck(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := Open(dir, Options{})
	if err := write(s, testCheckpoint(0, 2)); err != nil {
		t.Fatal(err)
	}
	goodDir := filepath.Join(dir, "programs", testKey)
	os.WriteFile(filepath.Join(goodDir, "WAL"), []byte("OWLWAL01"), 0o644)
	os.WriteFile(filepath.Join(goodDir, "WAL.tmp"), []byte("leftover"), 0o644)

	badKey := strings.Repeat("c", 64)
	badDir := filepath.Join(dir, "programs", badKey)
	os.MkdirAll(badDir, 0o755)
	os.WriteFile(filepath.Join(badDir, "CHECKPOINT"), []byte("not a checkpoint"), 0o644)
	os.WriteFile(filepath.Join(badDir, "CHECKPOINT.tmp"), []byte("leftover"), 0o644)

	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Programs) != 2 || rep.OK != 1 || rep.Quarantined != 1 || rep.Removed != 2 || rep.WALs != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if data, err := os.ReadFile(filepath.Join(dir, "quarantine", testKey+".WAL")); err != nil || string(data) != "OWLWAL01" {
		t.Errorf("leftover WAL not moved to quarantine: %q, %v", data, err)
	}
	for _, p := range rep.Programs {
		switch p.Key {
		case testKey:
			if !p.OK || p.Submissions != 2 || p.Pairs != 1 || p.Seen != 1 {
				t.Errorf("healthy program verdict = %+v", p)
			}
		case badKey:
			if p.OK || p.Err == "" {
				t.Errorf("corrupt program verdict = %+v", p)
			}
		}
	}
	entries, _ := os.ReadDir(goodDir)
	if len(entries) != 1 || entries[0].Name() != "CHECKPOINT" {
		t.Errorf("healthy program dir after fsck holds %v, want only CHECKPOINT", entries)
	}

	// After fsck the directory opens without further repair.
	mc := metrics.New()
	_, recovered, err := Open(dir, Options{Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || counterVal(mc, "serve.persist_quarantined") != 0 {
		t.Fatalf("post-fsck recovery = %d programs, %d quarantined; want 1, 0",
			len(recovered), counterVal(mc, "serve.persist_quarantined"))
	}
}

// TestFsckEmptyDir: fsck of a nonexistent or empty dir is clean.
// TestLeftoverWALCounted: boot ignores a WAL left by a server that
// predates the single-file format, but counts one that still holds
// records, since those jobs are not replayed. A WAL holding only its
// header lost nothing and is not counted.
func TestLeftoverWALCounted(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := Open(dir, Options{})
	other := testCheckpoint(0, 1)
	other.Key = strings.Repeat("d", 64)
	for _, ck := range []Checkpoint{testCheckpoint(0, 1), other} {
		if err := write(s, ck); err != nil {
			t.Fatal(err)
		}
	}
	os.WriteFile(filepath.Join(dir, "programs", testKey, "WAL"), []byte("OWLWAL01 and a record"), 0o644)
	os.WriteFile(filepath.Join(dir, "programs", other.Key, "WAL"), []byte("OWLWAL01"), 0o644)

	mc := metrics.New()
	_, recovered, err := Open(dir, Options{Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 || counterVal(mc, "serve.persist_quarantined") != 0 {
		t.Fatalf("recovered %d programs, %d quarantined; want 2, 0", len(recovered), counterVal(mc, "serve.persist_quarantined"))
	}
	if got := counterVal(mc, "serve.persist_wal_ignored"); got != 1 {
		t.Errorf("serve.persist_wal_ignored = %d, want 1", got)
	}
}

func TestFsckEmptyDir(t *testing.T) {
	rep, err := Fsck(filepath.Join(t.TempDir(), "never-created"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Programs) != 0 || rep.Quarantined != 0 {
		t.Fatalf("report = %+v", rep)
	}
}
