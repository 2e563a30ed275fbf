package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/conanalysis/owl/internal/faultinject"
)

func mustSubmit(t *testing.T, s *Server, spec Spec) *Job {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return j
}

// inlineSpec is a small racy inline program — cheap to analyze, and it
// produces raw reports so the report-set round trip is exercised too.
func inlineSpec() Spec {
	const src = `
global @x = 0

func @worker() {
entry:
  store 1, @x
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@worker)
  %v = load @x
  %r = call @join(%t)
  ret 0
}
`
	return Spec{Program: src, Options: SpecOptions{Explore: "coverage", Budget: 24, Seed: 3}}
}

// TestRestartResumeParity is the acceptance gate for the durable store:
// submit → drain → reboot from disk → resubmit must behave exactly like
// a never-restarted server's repeat submission — strictly fewer
// schedules than the first run at equal budget, a byte-identical
// summary, and the same accumulated program accounting.
func TestRestartResumeParity(t *testing.T) {
	spec := libsafeSpec("parity")

	// Baseline: one server, never restarted.
	base := mustNew(t, Config{Shards: 2, SnapEntries: 64})
	b1 := waitJob(t, mustSubmit(t, base, spec)).Result
	b2 := waitJob(t, mustSubmit(t, base, spec)).Result
	baseProgs := base.Programs()
	base.Shutdown(context.Background())

	// Durable: same first submission, then a full drain and a reboot
	// from the state directory.
	dir := t.TempDir()
	s1 := mustNew(t, Config{Shards: 2, SnapEntries: 64, StateDir: dir})
	d1 := waitJob(t, mustSubmit(t, s1, spec)).Result
	if normalizeTiming(d1.SummaryText) != normalizeTiming(b1.SummaryText) {
		t.Fatal("first-run summaries diverged before any restart — persistence changed pipeline behavior")
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := mustNew(t, Config{Shards: 2, SnapEntries: 64, StateDir: dir})
	defer s2.Shutdown(context.Background())
	if got := counterOf(s2.mc, "serve.persist_recovered"); got != 1 {
		t.Fatalf("serve.persist_recovered = %d, want 1", got)
	}
	st := waitJob(t, mustSubmit(t, s2, spec))
	if !st.Resume {
		t.Error("post-restart resubmission did not resume")
	}
	if counterOf(s2.mc, "serve.resume_hits") != 1 {
		t.Error("post-restart resubmission not counted as resume hit")
	}
	d2 := st.Result
	if d2.ExecutedSchedules >= d1.ExecutedSchedules {
		t.Errorf("post-restart resume executed %d schedules, want strictly fewer than first run's %d",
			d2.ExecutedSchedules, d1.ExecutedSchedules)
	}
	if d2.ExecutedSchedules != b2.ExecutedSchedules {
		t.Errorf("restart parity broken: %d schedules after reboot, never-restarted baseline executed %d",
			d2.ExecutedSchedules, b2.ExecutedSchedules)
	}
	if normalizeTiming(d2.SummaryText) != normalizeTiming(b2.SummaryText) {
		t.Errorf("post-restart summary diverged from baseline:\n--- restarted ---\n%s\n--- baseline ---\n%s",
			d2.SummaryText, b2.SummaryText)
	}
	if d2.Submissions != 2 || d2.NewReports != 0 || d2.StoreReports != b2.StoreReports {
		t.Errorf("post-restart accounting = %+v, baseline = %+v", d2, b2)
	}
	if progs := s2.Programs(); !reflect.DeepEqual(progs, baseProgs) {
		t.Errorf("program listings diverged:\n restarted %+v\n baseline  %+v", progs, baseProgs)
	}
}

// TestKillWithoutDrainRecovers: the first server is abandoned without
// Shutdown — no drain-time checkpoint — so the reboot must reconstruct
// the state purely from the checkpoint the job wrote before it
// published "done".
func TestKillWithoutDrainRecovers(t *testing.T) {
	dir := t.TempDir()
	spec := inlineSpec()
	s1 := mustNew(t, Config{Shards: 1, StateDir: dir})
	first := waitJob(t, mustSubmit(t, s1, spec)).Result
	if first.RawReports == 0 {
		t.Fatal("inline program produced no reports; the round trip tests nothing")
	}
	live := s1.Programs()
	// Simulated kill -9: s1 is abandoned, its shard goroutines parked.

	s2 := mustNew(t, Config{Shards: 1, StateDir: dir})
	defer s2.Shutdown(context.Background())
	if got := counterOf(s2.mc, "serve.persist_recovered"); got != 1 {
		t.Errorf("serve.persist_recovered = %d, want 1", got)
	}
	if got := s2.Programs(); !reflect.DeepEqual(got, live) {
		t.Errorf("rebooted store diverged from the killed one:\n rebooted %+v\n killed   %+v", got, live)
	}
	st := waitJob(t, mustSubmit(t, s2, spec))
	if !st.Resume {
		t.Error("resubmission after kill did not resume from the checkpoint")
	}
	if st.Result.Submissions != 2 || st.Result.NewReports != 0 || st.Result.StoreReports != first.StoreReports {
		t.Errorf("post-kill accounting = %+v (first %+v)", st.Result, first)
	}
}

// TestDiskFaultMatrix proves the crash contract under every injected
// fault on the checkpoint path: a faulted write never fails the job,
// it is counted, the previous checkpoint stays in place, and the next
// boot either recovers the last good checkpoint or quarantines — it
// never fails, and a resubmission always completes. Fault runs count
// per program and operation: a fresh program writes nothing, so run 0
// is job 1's checkpoint.
func TestDiskFaultMatrix(t *testing.T) {
	cases := []struct {
		name  string
		rules []faultinject.Rule
		// heal runs a second, fault-free job before the crash.
		heal bool
		// evict, with heal, runs another program between the two jobs
		// on a server bounded to one program in memory.
		evict bool
		// wantErrors: the writing server must count serve.persist_errors.
		wantErrors bool
		// wantResume/wantSubs describe the resubmission on the rebooted
		// server: does it resume, and which submission number is it?
		wantResume bool
		wantSubs   int
		// counter the rebooted server must have raised (beyond recovered).
		wantCounter string
	}{
		{
			// Job 1's checkpoint write errors out: the job still
			// completes, no checkpoint exists, and the reboot starts
			// cold.
			name:       "short-checkpoint-write",
			rules:      []faultinject.Rule{{Stage: "persist.checkpoint.write", Run: 0, Kind: faultinject.KindShortWrite}},
			wantErrors: true,
			wantSubs:   1,
		},
		{
			// Same via the fsync path.
			name:       "checkpoint-fsync-error",
			rules:      []faultinject.Rule{{Stage: "persist.checkpoint.fsync", Run: 0, Kind: faultinject.KindFsyncError}},
			wantErrors: true,
			wantSubs:   1,
		},
		{
			// The directory fsync fails after the rename: the error is
			// counted, but the new checkpoint is already in place and
			// the reboot resumes from it.
			name:       "dir-fsync-error",
			rules:      []faultinject.Rule{{Stage: "persist.dir.fsync", Run: 0, Kind: faultinject.KindFsyncError}},
			wantErrors: true,
			wantResume: true,
			wantSubs:   2,
		},
		{
			// Job 1's write fails, job 2's succeeds: the full-state
			// checkpoint heals the gap, and the reboot resumes with
			// both jobs' state.
			name:       "fault-then-heal",
			rules:      []faultinject.Rule{{Stage: "persist.checkpoint.write", Run: 0, Kind: faultinject.KindShortWrite}},
			heal:       true,
			wantErrors: true,
			wantResume: true,
			wantSubs:   3,
		},
		{
			// Job 1's write fails, then another program fills the
			// one-program store: the unsaved program must not be
			// evicted (its state exists only in memory), so job 2
			// resumes from job 1 and writes both jobs' state. Times: 1
			// keeps the rule off the other program's first write.
			name:       "fault-then-evict",
			rules:      []faultinject.Rule{{Stage: "persist.checkpoint.write", Run: 0, Times: 1, Kind: faultinject.KindShortWrite}},
			heal:       true,
			evict:      true,
			wantErrors: true,
			wantResume: true,
			wantSubs:   3,
		},
		{
			// Job 1's checkpoint tears (kill -9 mid page flush, reported
			// as success): boot must quarantine it, not half-load it.
			name:        "torn-checkpoint",
			rules:       []faultinject.Rule{{Stage: "persist.checkpoint.write", Run: 0, Kind: faultinject.KindTornWrite}},
			wantSubs:    1,
			wantCounter: "serve.persist_quarantined",
		},
		{
			// Job 1's checkpoint is bit-flipped (and reported written):
			// boot must quarantine the program.
			name:        "bitflip-checkpoint",
			rules:       []faultinject.Rule{{Stage: "persist.checkpoint.write", Run: 0, Kind: faultinject.KindBitFlip, Bit: 200}},
			wantSubs:    1,
			wantCounter: "serve.persist_quarantined",
		},
		{
			// Every write fails: the server keeps serving from memory,
			// nothing lands on disk, and the reboot starts cold — but
			// starts.
			name:       "everything-fails",
			rules:      []faultinject.Rule{{Stage: "persist.checkpoint.write", Run: -1, Kind: faultinject.KindShortWrite}},
			wantErrors: true,
			wantSubs:   1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := inlineSpec()
			cfg := Config{Shards: 1, StateDir: dir, Faults: &faultinject.Plan{Rules: tc.rules}}
			if tc.evict {
				cfg.MaxPrograms = 1
			}
			s1 := mustNew(t, cfg)
			st1 := waitJob(t, mustSubmit(t, s1, spec))
			if st1.State != StateDone {
				t.Fatalf("job under disk faults ended %q — faults must never fail analysis", st1.State)
			}
			if tc.evict {
				waitJob(t, mustSubmit(t, s1, libsafeSpec("evict")))
			}
			if tc.heal {
				st := waitJob(t, mustSubmit(t, s1, spec))
				if !st.Resume || st.Result.Submissions != 2 {
					t.Errorf("second job resume = %v, submission %d; want a resume of submission 2", st.Resume, st.Result.Submissions)
				}
			}
			if tc.evict {
				if got := counterOf(s1.mc, "serve.programs_evicted"); got != 0 {
					t.Errorf("serve.programs_evicted = %d, want 0: the unsaved program was evicted", got)
				}
			}
			if got := counterOf(s1.mc, "serve.persist_errors"); (got > 0) != tc.wantErrors {
				t.Errorf("serve.persist_errors = %d, want errors: %v", got, tc.wantErrors)
			}
			// Abandoned without drain, like a crash.

			s2 := mustNew(t, Config{Shards: 1, StateDir: dir})
			defer s2.Shutdown(context.Background())
			st2 := waitJob(t, mustSubmit(t, s2, spec))
			if st2.Resume != tc.wantResume {
				t.Errorf("post-fault resubmission resume = %v, want %v", st2.Resume, tc.wantResume)
			}
			if st2.Result.Submissions != tc.wantSubs {
				t.Errorf("post-fault resubmission is submission %d, want %d", st2.Result.Submissions, tc.wantSubs)
			}
			if tc.wantResume && st2.Result.ExecutedSchedules >= st1.Result.ExecutedSchedules {
				t.Errorf("recovered resume executed %d schedules, want fewer than %d",
					st2.Result.ExecutedSchedules, st1.Result.ExecutedSchedules)
			}
			if tc.wantCounter != "" && counterOf(s2.mc, tc.wantCounter) == 0 {
				t.Errorf("counter %s = 0 after recovery, want > 0", tc.wantCounter)
			}
		})
	}
}

// TestResumeFromStateDirWithLeftoverWAL: a state directory written
// by a server that kept a write-ahead log next to each checkpoint
// (testdata/wal-era-state: one drained job in CHECKPOINT, a second
// job's record left in WAL by a kill) still boots under the
// single-file format. The program resumes from its checkpoint, nothing
// is quarantined, the WAL record is not replayed but is counted, and
// fsck moves the leftover WAL to quarantine/.
func TestResumeFromStateDirWithLeftoverWAL(t *testing.T) {
	dir := t.TempDir()
	key := keyOf(t, inlineSpec())
	pdir := filepath.Join(dir, "programs", key)
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"CHECKPOINT", "WAL"} {
		data, err := os.ReadFile(filepath.Join("testdata/wal-era-state/programs", key, name))
		if err != nil {
			t.Fatalf("fixture: %v", err)
		}
		if err := os.WriteFile(filepath.Join(pdir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wal := filepath.Join(pdir, "WAL")

	s := mustNew(t, Config{Shards: 1, StateDir: dir})
	if got := counterOf(s.mc, "serve.persist_recovered"); got != 1 {
		t.Fatalf("serve.persist_recovered = %d, want 1", got)
	}
	if got := counterOf(s.mc, "serve.persist_quarantined") + counterOf(s.mc, "serve.persist_discarded"); got != 0 {
		t.Fatalf("WAL-era program quarantined or discarded (%d)", got)
	}
	if got := counterOf(s.mc, "serve.persist_wal_ignored"); got != 1 {
		t.Errorf("serve.persist_wal_ignored = %d, want 1 (the WAL holds a record)", got)
	}
	st := waitJob(t, mustSubmit(t, s, inlineSpec()))
	if !st.Resume {
		t.Error("resubmission did not resume from the WAL-era checkpoint")
	}
	if st.Result.Submissions != 2 {
		t.Errorf("resubmission is submission %d, want 2 (checkpoint's 1, WAL not replayed)", st.Result.Submissions)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 1 || rep.Quarantined != 0 || rep.WALs != 1 {
		t.Fatalf("fsck report = %+v, want 1 ok and the WAL moved to quarantine", rep)
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Errorf("fsck left the WAL behind: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", key+".WAL")); err != nil {
		t.Errorf("fsck did not keep the WAL under quarantine/: %v", err)
	}
}

// TestEvictionBoundsStore: -max-programs caps the in-memory store by
// LRU-evicting cold programs. Without persistence the evicted state is
// deliberately forgotten (bounded memory), so the resubmission starts
// cold.
func TestEvictionBoundsStore(t *testing.T) {
	s := mustNew(t, Config{Shards: 1, MaxPrograms: 1})
	defer s.Shutdown(context.Background())
	waitJob(t, mustSubmit(t, s, inlineSpec()))
	waitJob(t, mustSubmit(t, s, libsafeSpec("evict"))) // second program evicts the first
	if got := counterOf(s.mc, "serve.programs_evicted"); got != 1 {
		t.Fatalf("serve.programs_evicted = %d, want 1", got)
	}
	if got := s.store.len(); got != 1 {
		t.Fatalf("store holds %d programs, want 1", got)
	}
	st := waitJob(t, mustSubmit(t, s, inlineSpec()))
	if st.Resume {
		t.Error("evicted program resumed without persistence — state should have been dropped")
	}
}

// TestEvictionRehydratesFromDisk: with a state dir, eviction only drops
// the program from memory; the next submission lazily rehydrates it
// from disk and resumes warm.
func TestEvictionRehydratesFromDisk(t *testing.T) {
	s := mustNew(t, Config{Shards: 1, MaxPrograms: 1, StateDir: t.TempDir()})
	defer s.Shutdown(context.Background())
	first := waitJob(t, mustSubmit(t, s, inlineSpec())).Result
	waitJob(t, mustSubmit(t, s, libsafeSpec("evict")))
	if got := counterOf(s.mc, "serve.programs_evicted"); got != 1 {
		t.Fatalf("serve.programs_evicted = %d, want 1", got)
	}
	st := waitJob(t, mustSubmit(t, s, inlineSpec()))
	if !st.Resume {
		t.Error("evicted program did not rehydrate from disk")
	}
	if st.Result.Submissions != 2 || st.Result.StoreReports != first.StoreReports {
		t.Errorf("rehydrated accounting = %+v (first %+v)", st.Result, first)
	}
	if got := counterOf(s.mc, "serve.persist_recovered"); got == 0 {
		t.Error("lazy rehydrate not counted in serve.persist_recovered")
	}
}

// TestEvictionSparesInFlightProgram: a program whose first job is still
// queued must survive a concurrent insert pushing the store over
// -max-programs. acquire pins the program before it becomes visible to
// the eviction sweep, so eviction can never drop it while its job runs
// — the failure mode being a second copy rehydrated from disk that the
// running job's checkpoint later overwrites.
func TestEvictionSparesInFlightProgram(t *testing.T) {
	s := mustNew(t, Config{Shards: 1, MaxPrograms: 1, StateDir: t.TempDir()})
	defer s.Shutdown(context.Background())
	release := gateRunJob(s)
	defer release() // a Fatal below must not leave Shutdown waiting on the gate

	j1 := mustSubmit(t, s, inlineSpec())       // fresh program, gated in flight
	j2 := mustSubmit(t, s, libsafeSpec("pin")) // second program pushes the store over budget
	if got := counterOf(s.mc, "serve.programs_evicted"); got != 0 {
		t.Fatalf("serve.programs_evicted = %d with both programs in flight, want 0", got)
	}
	if got := s.store.len(); got != 2 {
		t.Fatalf("store holds %d programs, want 2 (over budget, but both are pinned)", got)
	}
	release()
	if first := waitJob(t, j1).Result; first.RawReports == 0 {
		t.Fatal("gated job produced no reports; the durability assertion below tests nothing")
	}
	waitJob(t, j2)

	// The first job's state must have survived the over-budget window:
	// the resubmission resumes warm with the accumulated accounting,
	// whether served from memory or from disk.
	st := waitJob(t, mustSubmit(t, s, inlineSpec()))
	if !st.Resume {
		t.Error("resubmission after in-flight window did not resume — first job's state was lost")
	}
	if st.Result.Submissions != 2 {
		t.Errorf("resubmission sees %d submissions, want 2", st.Result.Submissions)
	}
}

// TestDrainWithStreamSubscribers: a drain racing in-flight SSE
// subscribers must deliver every stream its terminal event and still
// complete. (Run under -race in the persist-gate lane.)
func TestDrainWithStreamSubscribers(t *testing.T) {
	s := mustNew(t, Config{Shards: 1, StateDir: t.TempDir()})
	release := gateRunJob(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := mustSubmit(t, s, inlineSpec())
	id := j.Status().ID

	const subscribers = 3
	finals := make(chan JobStatus, subscribers)
	errs := make(chan error, subscribers)
	for i := 0; i < subscribers; i++ {
		go func() {
			resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/stream")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			events := readSSE(t, resp)
			var final JobStatus
			if err := json.Unmarshal([]byte(events[len(events)-1].data), &final); err != nil {
				errs <- err
				return
			}
			finals <- final
		}()
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(context.Background()) }()
	time.Sleep(10 * time.Millisecond) // let the drain begin with the job gated in flight
	release()

	for i := 0; i < subscribers; i++ {
		select {
		case st := <-finals:
			if st.State != StateDone || st.Result == nil {
				t.Errorf("subscriber got terminal state %q, want done with result", st.State)
			}
		case err := <-errs:
			t.Fatalf("subscriber: %v", err)
		case <-time.After(60 * time.Second):
			t.Fatal("subscriber never saw a terminal event during drain")
		}
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drain never completed")
	}
}

// TestConcurrentCheckpointWhileAbsorbing hammers checkpoints against
// live jobs (the scrape/drain/absorb interleaving, run under -race in
// CI) and then proves the durable state equals the live state by
// rebooting from it.
func TestConcurrentCheckpointWhileAbsorbing(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, Config{Shards: 2, StateDir: dir})

	specs := []Spec{inlineSpec(), libsafeSpec("ckpt")}
	var jobs []*Job
	for round := 0; round < 3; round++ {
		for _, spec := range specs {
			jobs = append(jobs, mustSubmit(t, s, spec))
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.persistAll()
				s.Programs() // concurrent scrape for good measure
			}
		}
	}()
	for _, j := range jobs {
		waitJob(t, j)
	}
	close(stop)
	wg.Wait()

	live := s.Programs()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := mustNew(t, Config{Shards: 2, StateDir: dir})
	defer s2.Shutdown(context.Background())
	if got := s2.Programs(); !reflect.DeepEqual(got, live) {
		t.Errorf("rebooted store diverged from live store:\n rebooted %+v\n live     %+v", got, live)
	}
}
