package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/conanalysis/owl/internal/eval"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/workloads"
)

// appModels are the application models both batch workloads draw from.
var appModels = []string{"apache", "chrome", "memcached", "mysql", "ssdb", "libsafe"}

// batchSpec is one closed-loop batch workload: one client runs one job
// at a time, and a pass runs the whole job list.
type batchSpec struct {
	name   string
	noise  workloads.NoiseLevel
	models []string
	// coverage selects coverage-guided exploration; false is fixed mode
	// (the cmd/owl and owl-tables default).
	coverage bool
}

var (
	triageFull = batchSpec{name: "triage-full", noise: workloads.NoiseFull, models: appModels}
	huntLight  = batchSpec{
		name: "hunt-light", noise: workloads.NoiseLight,
		models:   append(append([]string(nil), appModels...), "linux"),
		coverage: true,
	}
)

// Hunt-light exploration settings: a large coverage budget with the
// copy-on-write snapshot cache, and one exploration seed. A seed drawn
// per job from 1-4 changes how soon exploration saturates: it gave
// pass_cpu_s a quartile spread of 0.15 of its median over 10 workload
// seeds.
const (
	huntBudget      = 128
	huntSnapCache   = 64
	huntExploreSeed = 1
	// setupReps is how many times set-up is repeated; setup_s is the
	// median.
	setupReps = 41
)

// job is one model a batch pass analyzes: one eval.EvalWorkload call,
// which runs every attack recipe of the model as owl-tables does.
type job struct {
	Model string
	w     *workloads.Workload
}

func (j job) key(workload string) string { return workload + "/" + j.Model }

// buildModules builds every model's workload module (the batch set-up).
func buildModules(spec batchSpec) map[string]*workloads.Workload {
	mods := make(map[string]*workloads.Workload, len(spec.models))
	for _, m := range spec.models {
		mods[m] = workloads.Get(m, spec.noise)
	}
	return mods
}

// allJobs is every model once: a pass's job list before shuffling, and
// the expectation universe.
func allJobs(spec batchSpec, mods map[string]*workloads.Workload) []job {
	jobs := make([]job, len(spec.models))
	for i, m := range spec.models {
		jobs[i] = job{Model: m, w: mods[m]}
	}
	return jobs
}

// drawPass is one pass's job list: every model, in a seeded order.
// Running every model keeps the amount of work the same for every seed.
func drawPass(spec batchSpec, mods map[string]*workloads.Workload, rng *rand.Rand) []job {
	jobs := allJobs(spec, mods)
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

func evalConfig(spec batchSpec, workers int, mc *metrics.Collector) eval.Config {
	cfg := eval.Config{Noise: spec.noise, PipelineWorkers: workers, Metrics: mc}
	if spec.coverage {
		cfg.Explore = owl.ExploreCoverage
		cfg.Budget = huntBudget
		cfg.SnapCache = huntSnapCache
		cfg.Seed = huntExploreSeed
	}
	return cfg
}

// runJob runs one job. tr and parent place it in the trace.
func runJob(spec batchSpec, j job, workers int, mc *metrics.Collector, tr *tracer, jobID string, parent int) (*eval.ProgramEval, error) {
	_, end := tr.begin("eval.EvalWorkload", jobID, parent)
	pe, err := eval.EvalWorkload(j.w, evalConfig(spec, workers, mc))
	end()
	if err != nil {
		return nil, err
	}
	for _, res := range pe.Results {
		if len(res.Quarantined) > 0 || len(res.Degraded) > 0 {
			return nil, fmt.Errorf("%s: %d runs quarantined, %d stages degraded", jobID, len(res.Quarantined), len(res.Degraded))
		}
	}
	return pe, nil
}

// checkVerdict compares a job's verdict with its committed expectation.
func checkVerdict(expect map[string]verdict, key string, got verdict) error {
	want, ok := expect[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no committed expectation", key)
	case want.String() != got.String():
		return fmt.Errorf("%s: got %s, want %s", key, got, want)
	}
	return nil
}

// perturbed is expect with key's raw report count off by one: the
// correctness check's self-test.
func perturbed(expect map[string]verdict, key string) map[string]verdict {
	out := make(map[string]verdict, len(expect))
	for k, v := range expect {
		out[k] = v
	}
	v := out[key]
	v.Raw++
	out[key] = v
	return out
}

// verdict is the result tuple the correctness check compares: the
// paper's Table 3 columns plus the matched modelled attacks.
type verdict struct {
	Raw        int      `json:"raw"`
	Annotated  int      `json:"annotated"`
	Eliminated int      `json:"eliminated"`
	Remaining  int      `json:"remaining"`
	Findings   int      `json:"findings"`
	Attacks    int      `json:"verified_attacks"`
	Matched    []string `json:"matched"`
}

func (v verdict) String() string {
	return fmt.Sprintf("raw=%d annotated=%d eliminated=%d remaining=%d findings=%d attacks=%d matched=%v",
		v.Raw, v.Annotated, v.Eliminated, v.Remaining, v.Findings, v.Attacks, v.Matched)
}

// verdictOf reads the verdict from the evaluation's Table-3 accounting
// and its matched attacks.
func verdictOf(pe *eval.ProgramEval) verdict {
	v := verdict{
		Raw: pe.RawReports, Annotated: pe.AfterAnnotation, Eliminated: pe.VerifierEliminated,
		Remaining: pe.Remaining, Findings: pe.Findings, Matched: []string{},
	}
	for _, res := range pe.Results {
		v.Attacks += res.Stats.VerifiedAttacks
	}
	for _, m := range pe.AttacksFound {
		how := "finding"
		if m.Confirmed {
			how = "confirmed"
		}
		v.Matched = append(v.Matched, m.Spec.ID+" "+how)
	}
	sort.Strings(v.Matched)
	return v
}

// workers is the pipeline pool width: never more than the processors
// the run may use.
func workers() int {
	return max(1, min(runtime.NumCPU(), runtime.GOMAXPROCS(0)))
}

// runBatch runs a batch workload: set-up, then passes until the time is
// used (untraced), or one untraced and one traced pass (traced). A pass's
// time is the sum of its jobs' times, so the traced pass leaves out the
// layer probes that run between its jobs.
func runBatch(spec batchSpec, c config) (*outcome, error) {
	out := newOutcome()
	rng := rand.New(rand.NewSource(c.seed))
	expect := c.expect
	if expect == nil {
		var err error
		if expect, err = loadExpectations(); err != nil {
			return nil, err
		}
	}

	var walls, cpus []float64
	var mods map[string]*workloads.Workload
	for i := 0; i < setupReps; i++ {
		// Collect earlier garbage first, so set-up is not charged for it:
		// without this, the median's spread over runs doubled.
		runtime.GC()
		t0, cpu0 := time.Now(), processCPUSeconds()
		mods = buildModules(spec)
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, processCPUSeconds()-cpu0)
	}
	out.metrics["setup_s"] = median(cpus)
	out.detail["setup_wall_s"] = median(walls)

	nw := workers()
	var passes, lats []float64
	// pass runs one pass and returns the summed time of its jobs. With a
	// tracer, every job also records spans and has its layers probed.
	pass := func(n int, mc *metrics.Collector, tr *tracer, acc *layerAcc) float64 {
		total := 0.0
		for i, j := range drawPass(spec, mods, rng) {
			jobID := fmt.Sprintf("p%d-j%d-%s", n, i, j.Model)
			out.attempted++
			jobSpan, endJob := tr.begin("job", jobID, 0)
			s := time.Now()
			pe, err := runJob(spec, j, nw, mc, tr, jobID, jobSpan)
			d := time.Since(s)
			total += d.Seconds()
			lats = append(lats, ms(d))
			if err != nil {
				out.failed++
				out.mismatch("%s: %v", jobID, err)
			} else {
				if err := checkVerdict(expect, j.key(spec.name), verdictOf(pe)); err != nil {
					out.mismatch("%s: %v", jobID, err)
				}
				if tr != nil {
					for _, m := range probeLayers(spec, j, pe, acc, tr, jobID, jobSpan) {
						out.mismatch("%s: %s", jobID, m)
					}
				}
			}
			endJob()
		}
		return total
	}

	start := time.Now()
	if !c.trace {
		var cpus []float64
		for n := 0; n == 0 || time.Since(start).Seconds()+passes[len(passes)-1] <= c.seconds; n++ {
			cpu0 := processCPUSeconds()
			passes = append(passes, pass(n, nil, nil, nil))
			cpus = append(cpus, processCPUSeconds()-cpu0)
		}
		out.metrics["pass_cpu_s"] = median(cpus)
		out.detail["pass_s"] = median(passes)
		out.detail["lat_p50_ms"] = median(lats)
	} else {
		untraced := pass(0, nil, nil, nil)
		passes = []float64{untraced}
		tr := newTracer()
		mc := metrics.New()
		acc := &layerAcc{}
		base := readGoStats()
		traced := pass(1, mc, tr, acc)
		readGoStats().since(base, out.metrics)
		acc.into(out.metrics)
		collectorMetrics(mc.Snapshot(), out.metrics)
		out.metrics["trace.overhead_s"] = traced - untraced
		out.metrics["trace.spans"] = float64(tr.count())
		out.detail["pass_s_traced"] = traced
		out.detail["self_s"] = tr.selfSeconds()
		path := fmt.Sprintf("%s/trace-%s-seed%d.json", outDir, spec.name, c.seed)
		if err := tr.write(path); err != nil {
			return nil, err
		}
		out.detail["trace_file"] = path
	}
	out.detail["passes"] = passes
	out.detail["jobs"] = out.attempted
	out.detail["workers"] = nw
	out.detail["setup_reps"] = setupReps
	return out, nil
}
