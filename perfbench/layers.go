package main

import (
	"fmt"
	"time"

	"github.com/conanalysis/owl/internal/adhoc"
	"github.com/conanalysis/owl/internal/eval"
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/ski"
	"github.com/conanalysis/owl/internal/vuln"
	"github.com/conanalysis/owl/internal/vulnverify"
	"github.com/conanalysis/owl/internal/workloads"
)

// detectSeeds are the fixed-mode detection seeds (owl.Options.DetectRuns
// default): the interp and race probes replay each job under them.
const detectSeeds = 8

// layerAcc accumulates what the traced run measures by calling each
// layer's public function again from outside, on the job's own inputs.
type layerAcc struct {
	rvMS                       []float64
	rvAttempts, rvSteps, rvBPs int64
	rvVerified                 int

	interpSteps, interpNS int64
	raceNS, raceEvents    int64

	adhocNS, vulnNS int64
	adhocSyncs      int

	vvMS      []float64
	vvReached int

	skiNS   int64
	skiRuns int
}

// countingSched counts scheduler consultations (one per executed step).
type countingSched struct {
	inner interp.Scheduler
	n     *int64
}

func (s countingSched) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	*s.n++
	return s.inner.Next(runnable, step)
}

func machineConfig(p owl.Program) interp.Config {
	if p.MaxSteps <= 0 {
		p.MaxSteps = 200000 // owl.Run's default
	}
	return interp.Config{Module: p.Module, Entry: p.Entry, Args: p.Args, Inputs: p.Inputs, MaxSteps: p.MaxSteps}
}

// recipes are the recipes eval.EvalWorkload runs for w, in the order of
// ProgramEval.Results: each distinct attack recipe, else the first one.
func recipes(w *workloads.Workload) []workloads.Recipe {
	var out []workloads.Recipe
	seen := map[string]bool{}
	for _, a := range w.Attacks {
		if !seen[a.InputRecipe] {
			seen[a.InputRecipe] = true
			out = append(out, w.Recipe(a.InputRecipe))
		}
	}
	if len(out) == 0 && len(w.Recipes) > 0 {
		out = append(out, w.Recipes[0])
	}
	return out
}

func program(w *workloads.Workload, rec workloads.Recipe) owl.Program {
	return owl.Program{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps}
}

// The SKI exploration bounds of eval.Config's defaults, with which
// eval.EvalWorkload explores a kernel model.
const (
	kernelRuns      = 96
	kernelDecisions = 10
)

// probeLayers re-invokes every layer on one finished job, recipe by
// recipe, and checks that the verdicts agree with what the evaluation
// returned. It returns the disagreements.
func probeLayers(spec batchSpec, j job, pe *eval.ProgramEval, acc *layerAcc, tr *tracer, jobID string, parent int) []string {
	recs := recipes(j.w)
	if j.w.Kernel {
		return probeKernel(j.w, recs, pe, acc, tr, jobID, parent)
	}
	if len(recs) != len(pe.Results) {
		return []string{fmt.Sprintf("evaluation returned %d results for %d recipes", len(pe.Results), len(recs))}
	}
	var bad []string
	for i, res := range pe.Results {
		p := program(j.w, recs[i])
		ids := probeDetect(p, acc, tr, jobID, parent)
		if syncs := probeAdhoc(res.Raw, acc, tr, jobID, parent); len(syncs) != len(res.Syncs) {
			bad = append(bad, fmt.Sprintf("%s: adhoc re-run mined %d syncs, pipeline %d", recs[i].Name, len(syncs), len(res.Syncs)))
		}
		if !spec.coverage {
			// Fixed mode detects with exactly these seeds.
			if want := reportIDs(res.Raw); fmt.Sprint(ids) != fmt.Sprint(want) {
				bad = append(bad, fmt.Sprintf("%s: detect re-run found %d reports, pipeline %d", recs[i].Name, len(ids), len(want)))
			}
		}
		bad = append(bad, probeRaceVerify(p, res, acc, tr, jobID, parent)...)
		bad = append(bad, probeVuln(p, res, acc, tr, jobID, parent)...)
		bad = append(bad, probeVulnVerify(p, res, acc, tr, jobID, parent)...)
	}
	return bad
}

// probeKernel explores each recipe of a kernel model with the SKI
// detector and mines ad-hoc syncs from its reports, as the evaluation
// does, and checks the merged counts against the evaluation's.
func probeKernel(w *workloads.Workload, recs []workloads.Recipe, pe *eval.ProgramEval, acc *layerAcc, tr *tracer, jobID string, parent int) []string {
	var bad []string
	raw, vars := map[string]bool{}, map[string]bool{}
	for _, rec := range recs {
		p := program(w, rec)
		probeDetect(p, acc, tr, jobID, parent)
		det := &ski.Detector{MaxRuns: kernelRuns, MaxDecisions: kernelDecisions}
		_, end := tr.begin("ski.Detect", jobID, parent)
		t0 := time.Now()
		reps, runs, err := det.Detect(machineConfig(p))
		acc.skiNS += int64(time.Since(t0))
		end()
		acc.skiRuns += runs
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: ski: %v", rec.Name, err))
			continue
		}
		races := make([]*race.Report, len(reps))
		for i, r := range reps {
			races[i] = r.Race
			raw[r.Race.ID()] = true
		}
		for _, s := range probeAdhoc(races, acc, tr, jobID, parent) {
			vars[s.Var] = true
		}
	}
	if len(raw) != pe.RawReports {
		bad = append(bad, fmt.Sprintf("ski re-run found %d reports, evaluation %d", len(raw), pe.RawReports))
	}
	if len(vars) != pe.AdhocSyncs {
		bad = append(bad, fmt.Sprintf("adhoc re-run mined %d sync variables, evaluation %d", len(vars), pe.AdhocSyncs))
	}
	return bad
}

// probeVuln runs Algorithm 1 again from every verified report's read.
func probeVuln(p owl.Program, res *owl.Result, acc *layerAcc, tr *tracer, jobID string, parent int) []string {
	_, end := tr.begin("vuln.Analyze", jobID, parent)
	t0 := time.Now()
	analyzer := vuln.NewAnalyzer(p.Module)
	n := 0
	for _, h := range res.Hints {
		if rd, ok := h.Report.ReadSide(); h.Verified && ok && rd.Instr != nil {
			n += len(analyzer.Analyze(rd.Instr, rd.Stack))
		}
	}
	acc.vulnNS += int64(time.Since(t0))
	end()
	if n != res.Stats.Findings {
		return []string{fmt.Sprintf("vuln re-run found %d findings, pipeline %d", n, res.Stats.Findings)}
	}
	return nil
}

// probeDetect runs the program under each detection seed twice: without
// an observer (interpreter speed) and with a fresh race detector
// (detector cost per event). It returns the detectors' merged report IDs
// in first-seen order, as the fixed-mode detect stage merges them.
func probeDetect(p owl.Program, acc *layerAcc, tr *tracer, jobID string, parent int) []string {
	seen := map[string]bool{}
	var ids []string
	for seed := uint64(1); seed <= detectSeeds; seed++ {
		cfg := machineConfig(p)
		cfg.Sched = sched.NewRandom(seed)
		_, end := tr.begin("interp.Run", jobID, parent)
		t0 := time.Now()
		if m, err := interp.New(cfg); err == nil {
			acc.interpSteps += int64(m.Run().Steps)
		}
		acc.interpNS += int64(time.Since(t0))
		end()

		cfg.Sched = sched.NewRandom(seed)
		d := race.NewDetector()
		cfg.Observers = []interp.Observer{d}
		_, end = tr.begin("interp.Run+race", jobID, parent)
		t0 = time.Now()
		if m, err := interp.New(cfg); err == nil {
			m.Run()
		}
		acc.raceNS += int64(time.Since(t0))
		end()
		acc.raceEvents += d.Stats().Events
		for _, r := range d.Reports() {
			if !seen[r.ID()] {
				seen[r.ID()] = true
				ids = append(ids, r.ID())
			}
		}
	}
	return ids
}

func reportIDs(reps []*race.Report) []string {
	ids := make([]string, len(reps))
	for i, r := range reps {
		ids[i] = r.ID()
	}
	return ids
}

func probeAdhoc(raw []*race.Report, acc *layerAcc, tr *tracer, jobID string, parent int) []*adhoc.Sync {
	_, end := tr.begin("adhoc.Analyze", jobID, parent)
	t0 := time.Now()
	syncs := adhoc.NewDetector().Analyze(raw)
	acc.adhocNS += int64(time.Since(t0))
	end()
	acc.adhocSyncs += adhoc.UniqueVars(syncs)
	return syncs
}

// probeRaceVerify verifies every annotated report again through a
// machine factory that counts scheduler consultations and breakpoint
// calls.
func probeRaceVerify(p owl.Program, res *owl.Result, acc *layerAcc, tr *tracer, jobID string, parent int) []string {
	var bad []string
	if len(res.Hints) != len(res.Annotated) {
		return []string{fmt.Sprintf("pipeline returned %d hints for %d reports", len(res.Hints), len(res.Annotated))}
	}
	rv := raceverify.New()
	for i, rep := range res.Annotated {
		var steps, bps int64
		mk := func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
			cfg := machineConfig(p)
			cfg.Sched = countingSched{inner: s, n: &steps}
			cfg.Breakpoint = func(m *interp.Machine, t *interp.Thread, in *ir.Instr) interp.BPAction {
				bps++
				return bp(m, t, in)
			}
			return interp.New(cfg)
		}
		_, end := tr.begin("raceverify.Verify", jobID, parent)
		t0 := time.Now()
		h, err := rv.Verify(mk, rep)
		acc.rvMS = append(acc.rvMS, float64(time.Since(t0))/1e6)
		end()
		if err != nil {
			bad = append(bad, fmt.Sprintf("raceverify %s: %v", rep.ID(), err))
			continue
		}
		acc.rvAttempts += int64(h.Attempts)
		acc.rvSteps += steps
		acc.rvBPs += bps
		if h.Verified {
			acc.rvVerified++
		}
		if want := res.Hints[i]; hintKey(h) != hintKey(want) {
			bad = append(bad, fmt.Sprintf("raceverify %s: re-run %s, pipeline %s", rep.ID(), hintKey(h), hintKey(want)))
		}
	}
	return bad
}

func hintKey(h *raceverify.Hint) string {
	return fmt.Sprintf("verified=%v attempts=%d read=%d write=%d var=%s null=%v uninit=%v",
		h.Verified, h.Attempts, h.ReadVal, h.WriteVal, h.VarName, h.WritesNull, h.ReadsUninitialized)
}

// probeVulnVerify re-verifies every (verified hint, finding) pair in the
// pipeline's order.
func probeVulnVerify(p owl.Program, res *owl.Result, acc *layerAcc, tr *tracer, jobID string, parent int) []string {
	var findings []*vuln.Finding
	for _, h := range res.Hints {
		if h.Verified {
			findings = append(findings, res.FindingsByReport[h.Report.ID()]...)
		}
	}
	if len(findings) != len(res.Outcomes) {
		return []string{fmt.Sprintf("pipeline returned %d outcomes for %d findings", len(res.Outcomes), len(findings))}
	}
	mk := func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
		cfg := machineConfig(p)
		cfg.Sched, cfg.Breakpoint = s, bp
		return interp.New(cfg)
	}
	vv := vulnverify.New()
	var bad []string
	for i, f := range findings {
		_, end := tr.begin("vulnverify.Verify", jobID, parent)
		t0 := time.Now()
		o, err := vv.Verify(mk, f)
		acc.vvMS = append(acc.vvMS, float64(time.Since(t0))/1e6)
		end()
		if err != nil {
			bad = append(bad, fmt.Sprintf("vulnverify %s: %v", f.Site.Loc(), err))
			continue
		}
		if o.Reached {
			acc.vvReached++
		}
		if want := res.Outcomes[i]; o.Reached != want.Reached || o.Attempts != want.Attempts {
			bad = append(bad, fmt.Sprintf("vulnverify %s: re-run reached=%v/%d, pipeline reached=%v/%d",
				f.Site.Loc(), o.Reached, o.Attempts, want.Reached, want.Attempts))
		}
	}
	return bad
}

// into writes the probe metrics.
func (a *layerAcc) into(m map[string]float64) {
	m["raceverify.calls"] = float64(len(a.rvMS))
	m["raceverify.call_ms.p50"] = median(a.rvMS)
	m["raceverify.call_ms.max"] = maxOf(a.rvMS)
	m["raceverify.attempts"] = float64(a.rvAttempts)
	m["raceverify.steps"] = float64(a.rvSteps)
	m["raceverify.bp_calls"] = float64(a.rvBPs)
	m["raceverify.verified_ratio"] = ratio(float64(a.rvVerified), float64(len(a.rvMS)))
	m["interp.steps"] = float64(a.interpSteps)
	m["interp.steps_per_s"] = ratio(float64(a.interpSteps), float64(a.interpNS)/1e9)
	m["race.ns_per_event"] = ratio(float64(a.raceNS-a.interpNS), float64(a.raceEvents))
	m["adhoc.analyze_ms"] = float64(a.adhocNS) / 1e6
	m["adhoc.syncs"] = float64(a.adhocSyncs)
	m["vuln.analyze_ms"] = float64(a.vulnNS) / 1e6
	m["vulnverify.calls"] = float64(len(a.vvMS))
	m["vulnverify.call_ms.p50"] = median(a.vvMS)
	m["vulnverify.reached_ratio"] = ratio(float64(a.vvReached), float64(len(a.vvMS)))
	m["ski.detect_s"] = float64(a.skiNS) / 1e9
	m["ski.runs"] = float64(a.skiRuns)
}

// collectorMetrics reads the pipeline's own accounting (the collector
// passed through eval.Config.Metrics, or a /metrics delta).
func collectorMetrics(rep *metrics.Report, m map[string]float64) {
	wall := map[string]float64{}
	for _, s := range rep.Stages {
		wall[s.Name] = s.Wall.Seconds()
		switch s.Name {
		case "owl.detect", "owl.adhoc", "owl.raceverify", "owl.analyze", "owl.vulnverify":
			m[s.Name+".busy_s"] = s.Busy.Seconds()
		}
	}
	m["owl.raceverify.share"] = ratio(wall["owl.raceverify"], wall["owl.total"])
	c := map[string]float64{}
	for _, x := range rep.Counters {
		c[x.Name] = float64(x.Value)
	}
	m["race.events"] = c["race.events"]
	m["race.fastpath_ratio"] = ratio(c["race.fastpath_hits"], c["race.events"])
	m["interp.max_steps_hit"] = c["interp.max_steps_hit"]
	m["sched.runs"] = c["owl.detect_runs"]
	m["sched.coverage_pairs"] = c["sched.coverage_pairs"]
	m["sched.snap_hit_ratio"] = ratio(c["sched.snap_hits"], c["sched.snap_hits"]+c["sched.snap_misses"])
	m["sched.snap_resume_steps_saved"] = c["sched.snap_resume_steps_saved"]
}
