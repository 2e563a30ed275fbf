package owl

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/supervise"
	"github.com/conanalysis/owl/internal/workloads"
)

func libsafeProgram(t *testing.T) Program {
	t.Helper()
	w := workloads.Get("libsafe", workloads.NoiseLight)
	rec := w.Recipe(w.Attacks[0].InputRecipe)
	return Program{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps}
}

// acceptancePlan is the issue's canned scenario, built fresh per run
// (plans carry per-point fire counts): panic two detect workers, stall
// every vulnverify run past the stage deadline.
func acceptancePlan() *faultinject.Plan {
	return &faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Stage: "owl.detect", Run: 1, Kind: faultinject.KindPanic, Msg: "malformed IR worker"},
		{Stage: "owl.detect", Run: 3, Kind: faultinject.KindPanic, Msg: "malformed IR worker"},
		{Stage: "owl.vulnverify", Run: -1, Kind: faultinject.KindDelay, DelayMS: 60000},
	}}
}

// robustFingerprint renders the supervisor records byte-comparably.
func robustFingerprint(res *Result) string {
	var b strings.Builder
	for _, q := range res.Quarantined {
		fmt.Fprintf(&b, "quar %s\n", q)
	}
	for _, d := range res.Degraded {
		fmt.Fprintf(&b, "deg %s\n", d)
	}
	return b.String()
}

// counterFingerprint renders the counter section of a metrics snapshot
// (timings and gauges legitimately vary across worker counts; every
// counter must not).
func counterFingerprint(mc *metrics.Collector) string {
	var b strings.Builder
	for _, c := range mc.Snapshot().Counters {
		fmt.Fprintf(&b, "%s=%d\n", c.Name, c.Value)
	}
	return b.String()
}

// TestFaultedPipelineDeterministicAcrossWorkers is the tentpole gate:
// under the acceptance fault plan the pipeline still yields surviving
// races and findings, and the Result, quarantine/degradation records,
// and metrics counters are byte-identical for workers = 1, 4, 8.
func TestFaultedPipelineDeterministicAcrossWorkers(t *testing.T) {
	p := libsafeProgram(t)
	var base string
	for _, workers := range []int{1, 4, 8} {
		mc := metrics.New()
		res, err := Run(p, Options{
			Workers: workers, Metrics: mc,
			Faults: acceptancePlan(), StageTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Raw) == 0 || res.Stats.Findings == 0 {
			t.Fatalf("workers=%d: no surviving races/findings (raw=%d findings=%d)",
				workers, len(res.Raw), res.Stats.Findings)
		}
		if len(res.Quarantined) != 2 {
			t.Fatalf("workers=%d: quarantined = %+v, want the 2 panicked detect runs", workers, res.Quarantined)
		}
		var vvTimeout bool
		for _, d := range res.Degraded {
			if d.Stage == "owl.vulnverify" && d.Reason == "timeout" {
				vvTimeout = true
			}
		}
		if !vvTimeout {
			t.Fatalf("workers=%d: degraded = %+v, want an owl.vulnverify timeout", workers, res.Degraded)
		}
		counters := map[string]int64{}
		for _, c := range mc.Snapshot().Counters {
			counters[c.Name] = c.Value
		}
		if counters["owl.quarantined"] != 2 || counters["owl.degraded_stages"] == 0 || counters["owl.timeouts"] == 0 {
			t.Fatalf("workers=%d: supervisor counters = %v", workers, counters)
		}
		fp := fingerprint(res) + robustFingerprint(res) + counterFingerprint(mc)
		if workers == 1 {
			base = fp
			continue
		}
		if fp != base {
			t.Errorf("workers=%d diverged from workers=1:\n%s", workers, diffLines(base, fp))
		}
	}
}

// diffLines returns the first differing line pair, for readable failures.
func diffLines(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  workers=1: %s\n  other:     %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestFailFastNamesFirstFaultedStage: the same plan under -fail-fast
// aborts with an error naming the first faulted stage.
func TestFailFastNamesFirstFaultedStage(t *testing.T) {
	p := libsafeProgram(t)
	res, err := Run(p, Options{
		Faults: acceptancePlan(), StageTimeout: 2 * time.Second, FailFast: true,
	})
	if err == nil {
		t.Fatal("fail-fast pipeline returned nil error under the fault plan")
	}
	if !strings.Contains(err.Error(), "owl.detect") {
		t.Fatalf("error %q does not name the first faulted stage owl.detect", err)
	}
	if res != nil {
		t.Fatal("fail-fast should not return a result")
	}
}

// TestTimeoutPartialResultsSurviveKilledDetect kills most of the detect
// stage with context-aware stalls and checks the runs that beat the
// deadline still feed the rest of the pipeline — and that the partial
// outcome is itself deterministic across worker counts.
func TestTimeoutPartialResultsSurviveKilledDetect(t *testing.T) {
	plan := func() *faultinject.Plan {
		p := &faultinject.Plan{Seed: 2}
		for run := 2; run < 8; run++ {
			p.Rules = append(p.Rules, faultinject.Rule{
				Stage: "owl.detect", Run: run, Kind: faultinject.KindDelay, DelayMS: 60000,
			})
		}
		return p
	}
	prog := libsafeProgram(t)
	var base string
	for _, workers := range []int{1, 4} {
		mc := metrics.New()
		res, err := Run(prog, Options{
			Workers: workers, Metrics: mc,
			Faults: plan(), StageTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Stats.RawReports == 0 {
			t.Fatalf("workers=%d: the two surviving detect runs produced no reports", workers)
		}
		var detTimeout *supervise.Degradation
		for i := range res.Degraded {
			if res.Degraded[i].Stage == "owl.detect" {
				detTimeout = &res.Degraded[i]
			}
		}
		if detTimeout == nil || detTimeout.Reason != "timeout" || detTimeout.RunsLost != 6 {
			t.Fatalf("workers=%d: degraded = %+v, want owl.detect timeout losing 6 runs", workers, res.Degraded)
		}
		if len(res.Hints) == 0 {
			t.Fatalf("workers=%d: later stages did not run on the partial reports", workers)
		}
		fp := fingerprint(res) + robustFingerprint(res)
		if workers == 1 {
			base = fp
			continue
		}
		if fp != base {
			t.Errorf("workers=%d diverged:\n%s", workers, diffLines(base, fp))
		}
	}
}

// TestTransientFaultRetriesMatchCleanRun: a Times-bounded spurious error
// plus one retry must reproduce the clean-run result exactly, with the
// retries counted and nothing quarantined.
func TestTransientFaultRetriesMatchCleanRun(t *testing.T) {
	prog := libsafeProgram(t)
	clean, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := &faultinject.Plan{Seed: 3, Rules: []faultinject.Rule{
		{Stage: "owl.detect", Run: 2, Kind: faultinject.KindError, Times: 1, Msg: "transient io"},
		{Stage: "owl.raceverify", Run: 0, Kind: faultinject.KindError, Times: 1, Msg: "transient io"},
	}}
	mc := metrics.New()
	res, err := Run(prog, Options{Retries: 1, Faults: plan, Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 0 || len(res.Degraded) != 0 {
		t.Fatalf("retried run still degraded: quar=%+v deg=%+v", res.Quarantined, res.Degraded)
	}
	if got, want := fingerprint(res), fingerprint(clean); got != want {
		t.Errorf("retried result diverged from clean run:\n%s", diffLines(want, got))
	}
	var retries int64
	for _, c := range mc.Snapshot().Counters {
		if c.Name == "owl.retries" {
			retries = c.Value
		}
	}
	if retries != 2 {
		t.Fatalf("owl.retries = %d, want 2", retries)
	}
}

// TestStepBudgetInjectionSurfacesTruncation: a max-steps squeeze on the
// detect stage must be visible as interp.max_steps_hit instead of
// silently truncating.
func TestStepBudgetInjectionSurfacesTruncation(t *testing.T) {
	prog := libsafeProgram(t)
	plan := &faultinject.Plan{Seed: 4, Rules: []faultinject.Rule{
		{Stage: "owl.detect", Run: -1, Kind: faultinject.KindMaxSteps, MaxSteps: 40},
	}}
	mc := metrics.New()
	if _, err := Run(prog, Options{Faults: plan, Metrics: mc}); err != nil {
		t.Fatal(err)
	}
	var hit int64
	for _, c := range mc.Snapshot().Counters {
		if c.Name == "interp.max_steps_hit" {
			hit = c.Value
		}
	}
	if hit != 8 {
		t.Fatalf("interp.max_steps_hit = %d, want all 8 squeezed detect runs", hit)
	}
}

// TestCannedAcceptancePlanLoads keeps the committed CI plan honest: the
// file must parse and reproduce the acceptance scenario end to end.
func TestCannedAcceptancePlanLoads(t *testing.T) {
	plan, err := faultinject.Load("../../testdata/faults/detect-panic-vulnverify-timeout.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(libsafeProgram(t), Options{Faults: plan, StageTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 2 || len(res.Degraded) == 0 {
		t.Fatalf("canned plan: quar=%+v deg=%+v", res.Quarantined, res.Degraded)
	}
}

// TestRaceVerifyRoundsKeepFaultRecords pins the race-verification
// stage's fault accounting across its seed-major rounds: a report is
// injected once, so a stage deadline that stalls every verification and
// a plan that quarantines some reports (one after a retry) give the
// same Degradation and Quarantined records, retry count and hint totals
// at every worker count as the report-by-report stage did (the wanted
// strings are that stage's output).
func TestRaceVerifyRoundsKeepFaultRecords(t *testing.T) {
	w := workloads.Get("apache", workloads.NoiseLight)
	rec := w.Recipe(w.Attacks[0].InputRecipe)
	prog := Program{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps}
	for _, c := range []struct {
		name    string
		plan    func() *faultinject.Plan
		timeout time.Duration
		want    string
	}{
		{
			name: "deadline",
			plan: func() *faultinject.Plan {
				return &faultinject.Plan{Seed: 5, Rules: []faultinject.Rule{
					{Stage: "owl.raceverify", Run: -1, Kind: faultinject.KindDelay, DelayMS: 60000},
				}}
			},
			timeout: 2 * time.Second,
			want: "deg stage owl.raceverify degraded (timeout): 22 run(s) lost — stage deadline 2s exceeded\n" +
				"hints 0 verified 0 attempts 0 retries 0\n",
		},
		{
			name: "quarantine",
			plan: func() *faultinject.Plan {
				return &faultinject.Plan{Seed: 6, Rules: []faultinject.Rule{
					{Stage: "owl.raceverify", Run: 0, Kind: faultinject.KindError, Times: 1, Msg: "transient io"},
					{Stage: "owl.raceverify", Run: 3, Kind: faultinject.KindPanic, Msg: "bad report"},
					{Stage: "owl.raceverify", Run: 17, Kind: faultinject.KindError, Msg: "bad report"},
				}}
			},
			want: "quar quarantined owl.raceverify run 3 after 2 attempt(s): panic: injected panic at owl.raceverify run 3: bad report\n" +
				"quar quarantined owl.raceverify run 17 after 2 attempt(s): error: injected error at owl.raceverify run 17: bad report\n" +
				"deg stage owl.raceverify degraded (quarantine): 2 run(s) lost — panic: injected panic at owl.raceverify run 3: bad report\n" +
				"hints 20 verified 8 attempts 104 retries 3\n",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			var base string
			for _, workers := range []int{1, 2} {
				mc := metrics.New()
				res, err := Run(prog, Options{
					Workers: workers, Faults: c.plan(), StageTimeout: c.timeout, Retries: 1,
					DisableVulnVerify: true, Metrics: mc,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				verified, attempts := 0, 0
				for _, h := range res.Hints {
					attempts += h.Attempts
					if h.Verified {
						verified++
					}
				}
				var retries int64
				for _, x := range mc.Snapshot().Counters {
					if x.Name == "owl.retries" {
						retries = x.Value
					}
				}
				got := robustFingerprint(res) + fmt.Sprintf("hints %d verified %d attempts %d retries %d\n",
					len(res.Hints), verified, attempts, retries)
				if workers == 1 {
					base = got
				} else if got != base {
					t.Errorf("workers=%d diverged:\n%s", workers, diffLines(base, got))
				}
				if got != c.want {
					t.Errorf("workers=%d records:\n%s\nwant:\n%s", workers, got, c.want)
				}
			}
		})
	}
}

// TestRaceVerifyReferenceFailureQuarantines: the shared reference runs
// outside the supervised jobs, so when it cannot build its machine, or
// panics, every report of the round is quarantined with the cause —
// for a build error with the same reason a from-step-0 attempt gives.
func TestRaceVerifyReferenceFailureQuarantines(t *testing.T) {
	res, err := Run(libsafeProgram(t), Options{DisableRaceVerify: true, DisableVulnVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	reps := res.Annotated
	if len(reps) == 0 {
		t.Fatal("no reports to verify")
	}
	for _, c := range []struct {
		name string
		mk   raceverify.MachineFactory
		want string
	}{
		{"error", func(interp.Scheduler, interp.BreakpointFunc) (*interp.Machine, error) {
			return nil, errors.New("boom")
		}, "race verifier: build machine: boom"},
		{"panic", func(interp.Scheduler, interp.BreakpointFunc) (*interp.Machine, error) {
			panic("boom")
		}, "race verifier: shared prefix of seed 1: panic: boom"},
	} {
		sup := supervise.New(supervise.Config{})
		st := sup.Stage("owl.raceverify")
		hints := verifyRaces(st, raceverify.New(), c.mk, reps, 2, nil)
		st.Close()
		q := sup.Quarantined()
		if len(q) != len(reps) {
			t.Fatalf("%s: %d of %d reports quarantined", c.name, len(q), len(reps))
		}
		for i, h := range hints {
			want := fmt.Sprintf("error: race verification of %s: %s", reps[i].ID(), c.want)
			if h != nil || q[i].Run != i || q[i].Reason != want {
				t.Errorf("%s: report %d: hint %v, record %+v, want reason %q", c.name, i, h, q[i], want)
			}
		}
	}
}
