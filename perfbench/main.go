// Command owlbench is the repository's benchmark. It runs one of three
// workloads against the OWL packages in-process, checks every output for
// correctness, and prints its metrics by name with their units:
//
//	owlbench --workload triage-full|hunt-light|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics of a separate
// traced run (spans around every call the benchmark makes into a layer,
// written under .bench_build/perfbench/). The lines before it give the
// run's provenance and details that are not gated (per-rate serve
// latencies, tail percentiles with their sample counts, span self
// times). See README.md for what each workload and metric means.
//
//	owlbench --write-expect perfbench/expect.json
//
// regenerates the committed verdict expectations of the two batch
// workloads with the default tree engine.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run writes: traces and serve state. It lies
// inside the checkout the benchmark runs from.
const outDir = ".bench_build/perfbench"

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// expect replaces the committed batch expectations when set (the
	// correctness check's self-test).
	expect map[string]verdict
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	// mismatches lists every failed correctness check.
	mismatches []string
	metrics    map[string]float64
	// detail is printed but not gated.
	detail map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
}

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

type metricDef struct{ name, unit string }

// endToEnd are the gated metrics every workload reports with --trace 0.
// Times are process CPU seconds: on a shared virtual machine the host's
// steal moves wall times by 20-30% between runs, CPU times by about 5%.
// Wall times are in the detail line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_cpu_s", "s"},
	{"rss_p50_mb", "MB"},
}

// perLayer are the metrics every workload reports with --trace 1. A
// layer a workload does not exercise reads 0 there (README.md maps each
// metric to its workload and end-to-end metric).
var perLayer = []metricDef{
	{"owl.detect.busy_s", "s"},
	{"owl.adhoc.busy_s", "s"},
	{"owl.raceverify.busy_s", "s"},
	{"owl.analyze.busy_s", "s"},
	{"owl.vulnverify.busy_s", "s"},
	{"owl.raceverify.share", "ratio"},
	{"raceverify.calls", "count"},
	{"raceverify.call_ms.p50", "ms"},
	{"raceverify.call_ms.max", "ms"},
	{"raceverify.attempts", "count"},
	{"raceverify.steps", "count"},
	{"raceverify.bp_calls", "count"},
	{"raceverify.verified_ratio", "ratio"},
	{"interp.steps", "count"},
	{"interp.steps_per_s", "1/s"},
	{"interp.max_steps_hit", "count"},
	{"race.ns_per_event", "ns"},
	{"race.events", "count"},
	{"race.fastpath_ratio", "ratio"},
	{"sched.runs", "count"},
	{"sched.coverage_pairs", "count"},
	{"sched.snap_hit_ratio", "ratio"},
	{"sched.snap_resume_steps_saved", "count"},
	{"adhoc.analyze_ms", "ms"},
	{"adhoc.syncs", "count"},
	{"vuln.analyze_ms", "ms"},
	{"vulnverify.calls", "count"},
	{"vulnverify.call_ms.p50", "ms"},
	{"vulnverify.reached_ratio", "ratio"},
	{"ski.detect_s", "s"},
	{"ski.runs", "count"},
	{"serve.submit_ms.p50", "ms"},
	{"serve.submit_ms.max", "ms"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.tail", "ms"},
	{"serve.run_ms.p50", "ms"},
	{"serve.run_ms.tail", "ms"},
	{"serve.post_pipeline_ms", "ms"},
	{"serve.resume_hit_ratio", "ratio"},
	{"serve.persist_checkpoints", "count"},
	{"serve.persist_wal_records", "count"},
	{"serve.persist_wal_bytes", "bytes"},
	{"serve.executed_schedules", "count"},
	{"serve.gen_lag_ms.max", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "owlbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fset := flag.NewFlagSet("owlbench", flag.ContinueOnError)
	var c config
	fset.StringVar(&c.workload, "workload", "", "triage-full, hunt-light or serve-mix")
	fset.Int64Var(&c.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fset.Float64Var(&c.seconds, "seconds", 25, "how long the run measures")
	traceFlag := fset.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	writeExpect := fset.String("write-expect", "", "regenerate the batch verdict expectations into this file and exit")
	if err := fset.Parse(args); err != nil {
		return 2, err
	}
	if *writeExpect != "" {
		return 0, generateExpectations(*writeExpect)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1")
	}
	c.trace = *traceFlag == 1
	if c.seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 1, err
	}

	prov := provenance(c)
	sampler := startRSSSampler(20 * time.Millisecond)
	cpu0, steal0 := processCPUSeconds(), stealSeconds()
	var out *outcome
	var err error
	switch c.workload {
	case "triage-full":
		out, err = runBatch(triageFull, c)
	case "hunt-light":
		out, err = runBatch(huntLight, c)
	case "serve-mix":
		out, err = runServeMix(c)
	default:
		return 2, fmt.Errorf("unknown workload %q (want triage-full, hunt-light or serve-mix)", c.workload)
	}
	if err != nil {
		return 1, err
	}
	rss := sampler.Stop()
	out.metrics["rss_p50_mb"] = median(rss)
	out.detail["peak_rss_mb"] = peakRSSMB()
	out.detail["cpu_s"] = processCPUSeconds() - cpu0
	out.detail["steal_s"] = stealSeconds() - steal0

	printJSON(map[string]any{"provenance": prov})
	printJSON(map[string]any{"detail": out.detail})
	for _, m := range out.mismatches {
		fmt.Println("MISMATCH:", m)
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   len(out.mismatches) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]map[string]any{},
	}
	for _, d := range defs {
		v := out.metrics[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// Only failed jobs make a latency infinite; the run is
			// already incorrect.
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	printJSON(res)
	if !res.Correct || res.Attempted < 1 {
		return 1, fmt.Errorf("correctness check failed (%d mismatches)", len(out.mismatches))
	}
	return 0, nil
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and numbers are printed
	}
	fmt.Println(string(data))
}

// provenance is the ledger row header every result carries.
func provenance(c config) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"workload":      c.workload,
		"seed":          c.seed,
		"seconds":       c.seconds,
		"trace":         c.trace,
		"git_sha":       gitSHA(),
		"source_sha256": sourceDigest(),
		"host":          host,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"engine":        "tree",
		"date":          time.Now().UTC().Format(time.RFC3339),
	}
}

// gitSHA reads the commit from .git without running git; a checkout
// that is not a git repository reports "unknown" (source_sha256 still
// identifies the code).
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, isRef := strings.CutPrefix(ref, "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(line, " "); ok && r == name {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout in
// path order.
func sourceDigest() string {
	var paths []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 { return statusMB("VmHWM:") }

// statusMB reads one kB field of /proc/self/status, in MB; 0 where the
// file does not exist.
func statusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// rssSampler samples the resident set (VmRSS) at a fixed interval until
// stopped.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func startRSSSampler(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.samples = append(s.samples, statusMB("VmRSS:"))
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the samples.
func (s *rssSampler) Stop() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// processCPUSeconds is the user plus system CPU time the process used.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stealSeconds is the machine's CPU steal time so far (time a virtual
// machine's processors waited for the host), summed over processors; 0
// where /proc/stat does not report it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// goStats is the Go runtime's allocation and GC accounting, diffed over a
// measured section.
type goStats struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNS    uint64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

func (g goStats) since(base goStats, into map[string]float64) {
	into["go.alloc_mb"] = float64(g.allocBytes-base.allocBytes) / (1 << 20)
	into["go.gc_cycles"] = float64(g.gcCycles - base.gcCycles)
	into["go.gc_pause_ms"] = float64(g.pauseNS-base.pauseNS) / 1e6
}
