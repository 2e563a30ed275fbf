package supervise

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/metrics"
)

// TestForEachQuarantinesPanicsDeterministically runs the same panicking
// job set under several worker counts and checks the quarantine records
// come out byte-identical and in run-index order.
func TestForEachQuarantinesPanicsDeterministically(t *testing.T) {
	render := func(workers int) string {
		sup := New(Config{})
		st := sup.Stage("stage")
		st.ForEach(0, 10, workers, func(_ context.Context, i int) error {
			if i == 2 || i == 7 {
				panic(fmt.Sprintf("boom %d", i))
			}
			if i == 4 {
				return errors.New("spurious")
			}
			return nil
		})
		deg := st.Close()
		var b strings.Builder
		for _, q := range sup.Quarantined() {
			fmt.Fprintf(&b, "%s\n", q)
		}
		if deg != nil {
			fmt.Fprintf(&b, "%s\n", deg)
		}
		return b.String()
	}
	base := render(1)
	if !strings.Contains(base, "boom 2") || !strings.Contains(base, "spurious") {
		t.Fatalf("missing quarantine records:\n%s", base)
	}
	for _, w := range []int{2, 4, 8} {
		if got := render(w); got != base {
			t.Errorf("workers=%d records differ:\n%s\nvs baseline\n%s", w, got, base)
		}
	}
}

// TestRetryRecoversTransientFault checks a Times-bounded fault is
// retried into success and counted, not quarantined.
func TestRetryRecoversTransientFault(t *testing.T) {
	mc := metrics.New()
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: "stage", Run: 3, Kind: faultinject.KindError, Times: 1},
	}}
	sup := New(Config{Retries: 1, Faults: plan, Metrics: mc})
	st := sup.Stage("stage")
	completed := st.ForEach(0, 5, 2, func(_ context.Context, i int) error {
		return st.Inject(i)
	})
	if deg := st.Close(); deg != nil {
		t.Fatalf("degraded despite retry: %s", deg)
	}
	if completed != 5 {
		t.Fatalf("completed = %d, want 5", completed)
	}
	q, retries, timeouts := sup.Counts()
	if q != 0 || retries != 1 || timeouts != 0 {
		t.Fatalf("counts = (%d quarantined, %d retries, %d timeouts), want (0, 1, 0)", q, retries, timeouts)
	}
	for _, c := range mc.Snapshot().Counters {
		if c.Name == "owl.quarantined" {
			t.Fatalf("owl.quarantined emitted on a fully retried run")
		}
	}
}

// TestRetriesExhaustedQuarantines checks a persistent fault survives the
// retry budget and records the attempt count.
func TestRetriesExhaustedQuarantines(t *testing.T) {
	sup := New(Config{Retries: 2, Backoff: time.Microsecond})
	st := sup.Stage("stage")
	var calls atomic.Int32
	st.ForEach(0, 1, 1, func(context.Context, int) error {
		calls.Add(1)
		return errors.New("always")
	})
	st.Close()
	qs := sup.Quarantined()
	if len(qs) != 1 || qs[0].Attempts != 3 {
		t.Fatalf("quarantined = %+v, want one record with 3 attempts", qs)
	}
	if calls.Load() != 3 {
		t.Fatalf("fn called %d times, want 3", calls.Load())
	}
}

// TestStageTimeoutLosesUnstartedRuns drives a stage past its deadline
// with context-aware blocking jobs and checks the loss accounting.
func TestStageTimeoutLosesUnstartedRuns(t *testing.T) {
	mc := metrics.New()
	sup := New(Config{StageTimeout: 30 * time.Millisecond, Metrics: mc})
	st := sup.Stage("stage")
	st.ForEach(0, 4, 2, func(ctx context.Context, i int) error {
		if i < 2 {
			return nil // fast jobs beat the deadline
		}
		<-ctx.Done()
		return ctx.Err()
	})
	deg := st.Close()
	if deg == nil || deg.Reason != "timeout" || deg.RunsLost != 2 {
		t.Fatalf("degradation = %+v, want timeout with 2 runs lost", deg)
	}
	_, _, timeouts := sup.Counts()
	if timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", timeouts)
	}
	found := map[string]int64{}
	for _, c := range mc.Snapshot().Counters {
		found[c.Name] = c.Value
	}
	if found["owl.timeouts"] != 1 || found["owl.degraded_stages"] != 1 {
		t.Fatalf("counters = %v, want owl.timeouts=1 owl.degraded_stages=1", found)
	}
}

// TestCancelOnFaultStopsSiblings checks the eval-pool policy: the first
// failure cancels the stage context so blocked siblings exit promptly.
func TestCancelOnFaultStopsSiblings(t *testing.T) {
	sup := New(Config{CancelOnFault: true})
	st := sup.Stage("stage")
	start := time.Now()
	st.ForEach(0, 3, 3, func(ctx context.Context, i int) error {
		if i == 0 {
			return errors.New("first failure")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(30 * time.Second):
			return nil
		}
	})
	st.Close()
	if time.Since(start) > 10*time.Second {
		t.Fatal("siblings did not observe the fault cancellation")
	}
	fq := st.FirstQuarantine()
	if fq == nil || fq.Run != 0 || !strings.Contains(fq.Reason, "first failure") {
		t.Fatalf("FirstQuarantine = %+v", fq)
	}
}

// TestFaultErrNamesStage pins the fail-fast error text.
func TestFaultErrNamesStage(t *testing.T) {
	sup := New(Config{})
	st := sup.Stage("owl.detect")
	st.ForEach(0, 2, 1, func(_ context.Context, i int) error {
		if i == 1 {
			panic("kaboom")
		}
		return nil
	})
	st.Close()
	err := st.FaultErr()
	if err == nil || !strings.Contains(err.Error(), "owl.detect") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("FaultErr = %v, want stage name and reason", err)
	}
}

// TestGuardRecovers checks the inline-section guard.
func TestGuardRecovers(t *testing.T) {
	sup := New(Config{})
	st := sup.Stage("stage")
	if ok := st.Guard(5, func(context.Context) error { panic("inline") }); ok {
		t.Fatal("Guard reported success for a panicking section")
	}
	if ok := st.Guard(6, func(context.Context) error { return nil }); !ok {
		t.Fatal("Guard reported failure for a clean section")
	}
	st.Close()
	qs := sup.Quarantined()
	if len(qs) != 1 || qs[0].Run != 5 {
		t.Fatalf("quarantined = %+v, want one record at run 5", qs)
	}
}

// TestRootCancelMarksRunsLost checks cooperative whole-pipeline
// cancellation: a canceled root loses the stage's unstarted runs and
// degrades with reason "canceled".
func TestRootCancelMarksRunsLost(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sup := New(Config{Ctx: ctx})
	st := sup.Stage("stage")
	ran := 0
	st.ForEach(0, 3, 1, func(context.Context, int) error {
		ran++
		return nil
	})
	deg := st.Close()
	if ran != 0 {
		t.Fatalf("%d runs started under a canceled root", ran)
	}
	if deg == nil || deg.Reason != "canceled" || deg.RunsLost != 3 {
		t.Fatalf("degradation = %+v, want canceled with 3 runs lost", deg)
	}
}

// TestForEachRunRounds drives a stage in rounds over shrinking lists of
// run indices, as the race-verification stage does: each round runs
// only the listed runs, quarantine records stay in run-index order
// across rounds, and once the stage deadline passes each pending run is
// counted lost exactly once.
func TestForEachRunRounds(t *testing.T) {
	for _, workers := range []int{1, 2} {
		sup := New(Config{StageTimeout: time.Hour})
		st := sup.Stage("stage")
		var ran []int
		var mu sync.Mutex
		job := func(round int) func(context.Context, int) error {
			return func(_ context.Context, i int) error {
				mu.Lock()
				ran = append(ran, i)
				mu.Unlock()
				if round == 1 && i == 8 || round == 2 && i == 3 {
					panic(fmt.Sprintf("boom %d", i))
				}
				return nil
			}
		}
		if n := st.ForEachRun([]int{2, 5, 8}, workers, job(1)); n != 2 {
			t.Fatalf("workers=%d: round 1 completed %d runs, want 2", workers, n)
		}
		if n := st.ForEachRun([]int{3, 5}, workers, job(2)); n != 1 {
			t.Fatalf("workers=%d: round 2 completed %d runs, want 1", workers, n)
		}
		sort.Ints(ran)
		if fmt.Sprint(ran) != "[2 3 5 5 8]" {
			t.Fatalf("workers=%d: ran %v, want only the listed runs", workers, ran)
		}
		st.cancel() // the deadline passes: the pending runs are lost once
		if n := st.ForEachRun([]int{2, 5}, workers, job(3)); n != 0 {
			t.Fatalf("workers=%d: round 3 completed %d runs after the deadline", workers, n)
		}
		deg := st.Close()
		var runs []int
		for _, q := range sup.Quarantined() {
			runs = append(runs, q.Run)
		}
		if fmt.Sprint(runs) != "[3 8]" {
			t.Errorf("workers=%d: quarantined runs %v, want [3 8] in run order", workers, runs)
		}
		if deg == nil || deg.RunsLost != 4 {
			t.Errorf("workers=%d: degradation %+v, want 2 quarantined + 2 lost", workers, deg)
		}
	}
}
