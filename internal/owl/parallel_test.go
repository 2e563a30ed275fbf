package owl

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/workloads"
)

// fingerprint renders everything order- and content-sensitive about a
// Result (timings excluded — they legitimately vary run to run) so two
// pipelines can be compared byte for byte.
func fingerprint(res *Result) string {
	var b strings.Builder
	for _, r := range res.Raw {
		fmt.Fprintf(&b, "raw %s x%d\n", r.ID(), r.Count)
	}
	for _, s := range res.Syncs {
		fmt.Fprintf(&b, "sync %s\n", s.Var)
	}
	for _, r := range res.Annotated {
		fmt.Fprintf(&b, "ann %s x%d\n", r.ID(), r.Count)
	}
	for _, h := range res.Hints {
		fmt.Fprintf(&b, "hint %s verified=%v attempts=%d read=%d write=%d var=%q null=%v uninit=%v\n",
			h.Report.ID(), h.Verified, h.Attempts, h.ReadVal, h.WriteVal,
			h.VarName, h.WritesNull, h.ReadsUninitialized)
	}
	ids := make([]string, 0, len(res.FindingsByReport))
	for id := range res.FindingsByReport {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, f := range res.FindingsByReport[id] {
			fmt.Fprintf(&b, "finding %s %s %s %s\n", id, f.Kind, f.Site.Loc(), f.Dep)
		}
	}
	for _, o := range res.Outcomes {
		fmt.Fprintf(&b, "outcome %s reached=%v attempts=%d branches=%d sched=%v\n",
			o.Finding.Site.Loc(), o.Reached, o.Attempts, len(o.Branches), o.Schedule)
	}
	for _, a := range res.Attacks {
		fmt.Fprintf(&b, "attack %s\n", a)
	}
	for _, id := range res.PredictedConfirmed {
		fmt.Fprintf(&b, "predicted %s\n", id)
	}
	for _, r := range res.AtomicityReports {
		fmt.Fprintf(&b, "atom %s x%d\n", r.ID(), r.Count)
	}
	for _, f := range res.AtomicityFindings {
		fmt.Fprintf(&b, "atomfinding %s %s %s\n", f.Kind, f.Site.Loc(), f.Dep)
	}
	s := res.Stats
	s.AnalysisTime, s.TotalTime = 0, 0
	fmt.Fprintf(&b, "stats %+v\n", s)
	return b.String()
}

// TestParallelPipelineDeterminism is the tentpole's regression gate: the
// full pipeline over the libsafe and ssdb workloads must produce
// byte-identical results for workers = 1, 4, and NumCPU.
func TestParallelPipelineDeterminism(t *testing.T) {
	widths := []int{1, 4, runtime.NumCPU()}
	for _, name := range []string{"libsafe", "ssdb"} {
		t.Run(name, func(t *testing.T) {
			w := workloads.Get(name, workloads.NoiseLight)
			rec := w.Recipe(w.Attacks[0].InputRecipe)
			var base string
			for _, workers := range widths {
				res, err := Run(Program{
					Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps,
				}, Options{Workers: workers, EnableAtomicity: true})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				fp := fingerprint(res)
				if workers == 1 {
					base = fp
					if base == "" {
						t.Fatal("workers=1 produced an empty result")
					}
					continue
				}
				if fp != base {
					t.Errorf("workers=%d result differs from workers=1:\n--- workers=1\n%s--- workers=%d\n%s",
						workers, base, workers, fp)
				}
			}
		})
	}
}

// TestParallelPipelineMetrics checks that a worker-pooled run reports its
// stages, counters, and pool width through the collector.
func TestParallelPipelineMetrics(t *testing.T) {
	mc := metrics.New()
	w := workloads.Get("libsafe", workloads.NoiseLight)
	rec := w.Recipe(w.Attacks[0].InputRecipe)
	res, err := Run(Program{
		Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps,
	}, Options{Workers: 4, Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	rep := mc.Snapshot()
	stages := map[string]metrics.StageReport{}
	for _, s := range rep.Stages {
		stages[s.Name] = s
	}
	for _, want := range []string{"owl.detect", "owl.raceverify", "owl.total"} {
		s, ok := stages[want]
		if !ok {
			t.Errorf("stage %q missing from snapshot", want)
			continue
		}
		if s.Wall <= 0 {
			t.Errorf("stage %q has no wall time", want)
		}
	}
	if s := stages["owl.detect"]; s.Workers != 4 {
		t.Errorf("owl.detect pool width = %d, want 4", s.Workers)
	}
	if s := stages["owl.detect"]; s.Utilization <= 0 || s.Utilization > 1 {
		t.Errorf("owl.detect utilization = %v, want (0,1]", s.Utilization)
	}
	counters := map[string]int64{}
	for _, c := range rep.Counters {
		counters[c.Name] = c.Value
	}
	if counters["owl.raw_reports"] != int64(res.Stats.RawReports) {
		t.Errorf("raw_reports counter = %d, stats say %d",
			counters["owl.raw_reports"], res.Stats.RawReports)
	}
	if counters["owl.findings"] != int64(res.Stats.Findings) {
		t.Errorf("findings counter = %d, stats say %d",
			counters["owl.findings"], res.Stats.Findings)
	}
}
