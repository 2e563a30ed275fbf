package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/report"
	"github.com/conanalysis/owl/internal/serve"
)

// The serve-mix workload: an open loop of Poisson arrivals at three fixed
// offered rates through serve.Server.Handler() in-process, with the
// store persisted to local disk.
const (
	serveBudget = 16 // coverage budget of every submission
	serveBoots  = 21 // set-up repetitions; setup_s is the median boot
	tenants     = 4
	// tailLimitMS is the latency limit on the tail percentile that
	// decides max_ok_rate.
	tailLimitMS = 1000
)

// repeatModels are the registry programs submitted over and over; a
// warm-up run analyzes each before timing starts.
var repeatModels = []string{"libsafe", "ssdb", "memcached", "mysql", "apache"}

// mixUnit is one copy of the job mix: the serve rotation of
// tools/loadgen (libsafe, apache, ssdb and one inline program, equally
// weighted), extended with the memcached and mysql models, each once.
// Every phase sends whole copies, so each phase carries the same amount
// of work for every seed. "fresh" is an inline program no earlier job
// submitted.
var mixUnit = []string{"libsafe", "apache", "ssdb", "fresh", "memcached", "mysql"}

// submitOptions are the options of every submission: the loadgen
// rotation's coverage-guided exploration at budget 16, seed 7.
var submitOptions = serve.SpecOptions{Explore: "coverage", Budget: serveBudget, Seed: 7}

// phase is one offered rate of the open loop.
type phase struct {
	name  string
	rate  float64 // jobs/s
	units int     // copies of mixUnit sent
	// gated phases make up lat_p50_ms; the high phase's queueing moves
	// its median by more than a usable bound from seed to seed.
	gated bool
}

var phases = []phase{
	{"low", 3, 8, true},
	{"mid", 6, 8, true},
	{"high", 20, 8, false},
}

// bursts is how many burst passes (one copy of the mix submitted at
// once) a run makes; pass_s is their median.
const bursts = 7

// serveJob is one submission and what the client saw of it.
type serveJob struct {
	spec  serve.Spec
	fresh bool
	id    string

	due, sent, accepted time.Time
	running, done       time.Time
	status              serve.JobStatus
	err                 error
}

func (j *serveJob) ok() bool {
	return j.err == nil && j.status.State == serve.StateDone && j.status.Result != nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// mixGen draws jobs from the workload seed.
type mixGen struct {
	rng   *rand.Rand
	seed  int64
	fresh int
}

// jobs is units copies of the mix in a seeded order; shuffle=false keeps
// the mix order (the bursts, whose wall time depends on it).
func (g *mixGen) jobs(units int, shuffle bool) []*serveJob {
	var out []*serveJob
	for u := 0; u < units; u++ {
		for _, kind := range mixUnit {
			spec := serve.Spec{
				Tenant:  fmt.Sprintf("tenant-%d", g.rng.Intn(tenants)),
				Options: submitOptions,
			}
			j := &serveJob{spec: spec}
			if kind == "fresh" {
				j.fresh = true
				j.spec.Program = g.freshProgram()
			} else {
				j.spec.Workload = kind
			}
			out = append(out, j)
		}
	}
	if shuffle {
		g.rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	}
	return out
}

// freshProgram is a small racy program whose content, and so whose store
// key, no other job shares.
func (g *mixGen) freshProgram() string {
	g.fresh++
	k := (uint64(g.seed)%1_000_000)*100_000 + uint64(g.fresh)
	return fmt.Sprintf(`global @x = 0
global @k = %d

func @worker() {
entry:
  %%v = load @k
  store %%v, @x
  ret 0
}
func @main() {
entry:
  %%t = call @spawn(@worker)
  %%v = load @x
  %%r = call @join(%%t)
  ret 0
}
`, k)
}

// client drives one server through its HTTP handler, in-process.
type client struct {
	h  http.Handler
	tr *tracer
}

func (c *client) do(method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// run submits one job and follows its SSE stream to the end.
func (c *client) run(j *serveJob, label string) {
	jobSpan, endJob := c.tr.begin("job", label, 0)
	defer endJob()
	body, err := json.Marshal(j.spec)
	if err != nil {
		j.err = err
		return
	}
	j.sent = time.Now()
	_, end := c.tr.begin("serve.POST /v1/jobs", label, jobSpan)
	code, resp := c.do("POST", "/v1/jobs", body)
	end()
	j.accepted = time.Now()
	if code != http.StatusAccepted {
		j.err = fmt.Errorf("submit: HTTP %d: %s", code, strings.TrimSpace(string(resp)))
		return
	}
	var st serve.JobStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		j.err = fmt.Errorf("submit: %w", err)
		return
	}
	j.id = st.ID
	_, end = c.tr.begin("serve.GET /v1/jobs/{id}/stream", label, jobSpan)
	sr := &sseRecorder{header: http.Header{}, job: j}
	c.h.ServeHTTP(sr, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/stream", nil))
	end()
	if j.done.IsZero() {
		j.err = fmt.Errorf("stream of %s ended without a done event", st.ID)
	}
}

// sseRecorder is a streaming ResponseWriter: each flushed SSE event is
// time-stamped as it arrives.
type sseRecorder struct {
	header http.Header
	buf    bytes.Buffer
	job    *serveJob
}

func (r *sseRecorder) Header() http.Header         { return r.header }
func (r *sseRecorder) WriteHeader(int)             {}
func (r *sseRecorder) Write(p []byte) (int, error) { return r.buf.Write(p) }

func (r *sseRecorder) Flush() {
	now := time.Now()
	for {
		raw, _, ok := bytes.Cut(r.buf.Bytes(), []byte("\n\n"))
		if !ok {
			return
		}
		var event string
		var st serve.JobStatus
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				event = v
			} else if v, ok := strings.CutPrefix(line, "data: "); ok {
				if err := json.Unmarshal([]byte(v), &st); err != nil {
					r.job.err = fmt.Errorf("stream: %w", err)
				}
			}
		}
		if st.State != serve.StateQueued && r.job.running.IsZero() {
			r.job.running = now
		}
		if event == "done" {
			r.job.done = now
			r.job.status = st
		}
		r.buf.Next(len(raw) + 2)
	}
}

// scrape reads the live /metrics snapshot.
func (c *client) scrape() (*metrics.Report, error) {
	_, end := c.tr.begin("serve.GET /metrics", "", 0)
	defer end()
	code, body := c.do("GET", "/metrics", nil)
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	rep := &metrics.Report{}
	return rep, json.Unmarshal(body, rep)
}

// runAll sends jobs at their due times (one generator goroutine) and
// waits for every one to finish. A zero rate sends all at once. It
// returns how late the generator ran, at most.
func (c *client) runAll(jobs []*serveJob, rate float64, rng *rand.Rand, label string) time.Duration {
	var wg sync.WaitGroup
	var lag time.Duration
	start := time.Now()
	offset := 0.0
	for i, j := range jobs {
		if rate > 0 {
			offset += rng.ExpFloat64() / rate
		}
		j.due = start.Add(time.Duration(offset * float64(time.Second)))
		time.Sleep(time.Until(j.due))
		lag = max(lag, time.Since(j.due))
		wg.Add(1)
		go func(j *serveJob, i int) {
			defer wg.Done()
			c.run(j, fmt.Sprintf("%s-%d", label, i))
		}(j, i)
	}
	wg.Wait()
	return lag
}

func bootServer(cfg serve.Config) (*serve.Server, *client, time.Duration, error) {
	t0 := time.Now()
	s, err := serve.New(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	c := &client{h: s.Handler()}
	for {
		if code, _ := c.do("GET", "/healthz", nil); code == http.StatusOK {
			break
		}
		if time.Since(t0) > time.Minute {
			return nil, nil, 0, fmt.Errorf("server not healthy after a minute")
		}
		time.Sleep(time.Millisecond)
	}
	return s, c, time.Since(t0), nil
}

func runServeMix(c config) (*outcome, error) {
	out := newOutcome()
	rng := rand.New(rand.NewSource(c.seed))
	gen := &mixGen{rng: rng, seed: c.seed}
	dir, err := os.MkdirTemp(outDir, "serve-state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := serve.Config{Shards: workers(), StateDir: dir}

	// Warm-up: analyze every repeat program twice, so the timed run reads
	// warm, persisted state and its set-up replays a real store.
	s, cl, _, err := bootServer(cfg)
	if err != nil {
		return nil, err
	}
	for _, m := range repeatModels {
		for i := 0; i < 2; i++ {
			j := &serveJob{spec: serve.Spec{Tenant: "warmup", Workload: m, Options: submitOptions}}
			cl.run(j, "warmup-"+m)
			if !j.ok() {
				return nil, fmt.Errorf("warm-up %s: %v", m, j.err)
			}
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		return nil, err
	}

	// Set-up: boot recovery over the warm state dir until /healthz.
	var walls, cpus []float64
	for i := 0; i < serveBoots; i++ {
		var d time.Duration
		runtime.GC() // as in the batch set-up
		cpu0 := processCPUSeconds()
		if s, cl, d, err = bootServer(cfg); err != nil {
			return nil, err
		}
		cpus = append(cpus, processCPUSeconds()-cpu0)
		walls = append(walls, d.Seconds())
		if i < serveBoots-1 {
			if err := s.Shutdown(context.Background()); err != nil {
				return nil, err
			}
		}
	}
	defer s.Shutdown(context.Background())
	out.metrics["setup_s"] = median(cpus)
	out.detail["setup_wall_s"] = median(walls)

	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	var all []*serveJob
	check := func(jobs []*serveJob) {
		for _, j := range jobs {
			all = append(all, j)
			out.attempted++
			kind := j.spec.Workload
			if j.fresh {
				kind = "fresh program"
			}
			switch {
			case !j.ok():
				out.failed++
				out.mismatch("job %s (%s): state %q: %v", j.id, kind, j.status.State, j.err)
			case j.fresh == j.status.Resume:
				out.mismatch("job %s (%s): resume=%v", j.id, kind, j.status.Resume)
			}
		}
	}

	// The untraced burst, measured first in a traced run, gives the
	// tracing overhead.
	var untracedBurst float64
	if c.trace {
		untracedBurst = burstPasses(cl, gen, rng, "untraced-burst", check)
	}
	cl.tr = tr

	before, err := cl.scrape()
	if err != nil {
		return nil, err
	}
	base := readGoStats()
	cpu0, copies := processCPUSeconds(), bursts
	var pooled []float64
	var phaseJobs []*serveJob
	var genLag time.Duration
	maxOK := 0.0
	rates := map[string]any{}
	for _, ph := range phases {
		// The phases are sized for a 30 s run; other --seconds scale them.
		units := max(1, int(math.Round(float64(ph.units)*c.seconds/30)))
		jobs := gen.jobs(units, true)
		copies += units
		lag := cl.runAll(jobs, ph.rate, rng, ph.name)
		genLag = max(genLag, lag)
		check(jobs)
		phaseJobs = append(phaseJobs, jobs...)
		var lats []float64
		for _, j := range jobs {
			l := math.Inf(1) // a failed job misses any limit
			if j.ok() {
				l = ms(j.done.Sub(j.due))
			}
			lats = append(lats, l)
			if ph.gated {
				pooled = append(pooled, l)
			}
		}
		pct, tailMS, _ := tail(lats)
		third := len(jobs) / 3
		growing := median(lats[len(lats)-third:]) > 2*median(lats[:third])+tailLimitMS/4
		if tailMS <= tailLimitMS && !growing {
			maxOK = ph.rate
		}
		rates[ph.name] = map[string]any{
			"rate_per_s": ph.rate, "jobs": len(jobs),
			"lat_p50_ms": finite(median(lats)), "lat_mean_ms": finite(mean(lats)), "lat_tail_ms": finite(tailMS), "tail_pct": pct,
			"samples_beyond_tail": len(lats) - int(math.Ceil(float64(pct)/100*float64(len(lats)))),
			"backlog_growing":     growing, "gen_lag_ms": ms(lag),
		}
	}
	after, err := cl.scrape()
	if err != nil {
		return nil, err
	}
	out.detail["lat_p50_ms"] = finite(median(pooled))
	// The write path alone: fresh jobs' summed running-to-done time
	// (cold create, pipeline, checkpoint with fsyncs).
	freshRun := 0.0
	for _, j := range phaseJobs {
		if j.fresh && j.ok() {
			freshRun += ms(j.done.Sub(j.running))
		}
	}
	out.detail["fresh_run_ms_sum"] = freshRun
	out.detail["rates"] = rates
	out.detail["tail_limit_ms"] = tailLimitMS
	out.detail["max_ok_rate"] = maxOK
	out.detail["gen_lag_ms_max"] = ms(genLag)

	wall := burstPasses(cl, gen, rng, "burst", check)
	// The CPU cost of one copy of the mix, averaged over the phases and
	// the bursts: the median of single bursts' CPU times moved by 13%
	// between seeds, this average by about 5-10%.
	out.metrics["pass_cpu_s"] = (processCPUSeconds() - cpu0) / float64(copies)
	out.detail["pass_s"] = wall
	out.detail["run_ms_by_kind"] = runByKind(all)

	if c.trace {
		readGoStats().since(base, out.metrics)
		serveLayerMetrics(phaseJobs, before, after, out.metrics)
		out.metrics["serve.gen_lag_ms.max"] = ms(genLag)
		out.metrics["trace.overhead_s"] = wall - untracedBurst
		out.metrics["trace.spans"] = float64(tr.count())
		out.detail["pass_s_untraced"] = untracedBurst
		out.detail["self_s"] = tr.selfSeconds()
		path := fmt.Sprintf("%s/trace-serve-mix-seed%d.json", outDir, c.seed)
		if err := tr.write(path); err != nil {
			return nil, err
		}
		out.detail["trace_file"] = path
	}
	for _, m := range checkFresh(all) {
		out.mismatch("%s", m)
	}
	out.detail["jobs"] = out.attempted
	out.detail["shards"] = cfg.Shards
	return out, nil
}

// burstPasses submits one copy of the mix at once, waits for every job,
// and returns the median wall time over the bursts.
func burstPasses(cl *client, gen *mixGen, rng *rand.Rand, label string, check func([]*serveJob)) float64 {
	var walls []float64
	for b := 0; b < bursts; b++ {
		jobs := gen.jobs(1, false)
		t0 := time.Now()
		cl.runAll(jobs, 0, rng, fmt.Sprintf("%s%d", label, b))
		walls = append(walls, time.Since(t0).Seconds())
		check(jobs)
	}
	return median(walls)
}

// runByKind is the median run time (running to done) per kind of job.
func runByKind(jobs []*serveJob) map[string]float64 {
	by := map[string][]float64{}
	for _, j := range jobs {
		if !j.ok() {
			continue
		}
		kind := j.spec.Workload
		if j.fresh {
			kind = "fresh"
		}
		by[kind] = append(by[kind], ms(j.done.Sub(j.running)))
	}
	out := map[string]float64{}
	for k, v := range by {
		out[k] = median(v)
	}
	return out
}

// serveLayerMetrics derives the serve per-layer metrics from the client's
// view of each job and the /metrics counters.
func serveLayerMetrics(jobs []*serveJob, before, after *metrics.Report, m map[string]float64) {
	var submit, wait, run []float64
	for _, j := range jobs {
		if !j.ok() {
			continue
		}
		submit = append(submit, ms(j.accepted.Sub(j.sent)))
		wait = append(wait, ms(j.running.Sub(j.accepted)))
		run = append(run, ms(j.done.Sub(j.running)))
	}
	m["serve.submit_ms.p50"] = median(submit)
	m["serve.submit_ms.max"] = maxOf(submit)
	m["serve.queue_wait_ms.p50"] = median(wait)
	_, m["serve.queue_wait_ms.tail"], _ = tail(wait)
	m["serve.run_ms.p50"] = median(run)
	_, m["serve.run_ms.tail"], _ = tail(run)

	delta := diffReport(before, after)
	collectorMetrics(delta, m)
	c := map[string]float64{}
	for _, x := range delta.Counters {
		c[x.Name] = float64(x.Value)
	}
	totalMS := 0.0
	for _, s := range delta.Stages {
		if s.Name == "owl.total" {
			totalMS = ms(s.Wall)
		}
	}
	sumRun := 0.0
	for _, r := range run {
		sumRun += r
	}
	m["serve.post_pipeline_ms"] = ratio(sumRun-totalMS, float64(len(run)))
	m["serve.resume_hit_ratio"] = ratio(c["serve.resume_hits"], c["serve.resume_hits"]+c["serve.resume_misses"])
	m["serve.persist_checkpoints"] = c["serve.persist_checkpoints"]
	m["serve.persist_wal_records"] = c["serve.persist_wal_records"]
	m["serve.persist_wal_bytes"] = c["serve.persist_wal_bytes"]
	m["serve.executed_schedules"] = c["owl.detect_runs"]
}

// diffReport is after minus before, for stage times and counters.
func diffReport(before, after *metrics.Report) *metrics.Report {
	stages := map[string]metrics.StageReport{}
	for _, s := range before.Stages {
		stages[s.Name] = s
	}
	counters := map[string]int64{}
	for _, x := range before.Counters {
		counters[x.Name] = x.Value
	}
	d := &metrics.Report{}
	for _, s := range after.Stages {
		b := stages[s.Name]
		s.Wall -= b.Wall
		s.Busy -= b.Busy
		s.Count -= b.Count
		d.Stages = append(d.Stages, s)
	}
	for _, x := range after.Counters {
		x.Value -= counters[x.Name]
		d.Counters = append(d.Counters, x)
	}
	return d
}

// timingLine is the one wall-clock line of a summary.
var timingLine = regexp.MustCompile(`(?m)^(static analysis time:\s*).*$`)

// checkFresh compares every fresh program's summary with report.Text of
// a direct owl.Run on fresh state, with the options the service used.
func checkFresh(jobs []*serveJob) []string {
	var bad []string
	for _, j := range jobs {
		if !j.fresh || !j.ok() {
			continue
		}
		mod, err := ir.Parse("submitted.oir", j.spec.Program)
		if err != nil {
			bad = append(bad, fmt.Sprintf("job %s: parse: %v", j.id, err))
			continue
		}
		res, err := owl.Run(owl.Program{Module: mod, MaxSteps: 500000}, owl.Options{
			DetectRuns: 8, Explore: owl.ExploreCoverage, Budget: submitOptions.Budget, Seed: submitOptions.Seed, Workers: 1,
		})
		if err != nil {
			bad = append(bad, fmt.Sprintf("job %s: direct run: %v", j.id, err))
			continue
		}
		want := timingLine.ReplaceAllString(report.Text("submitted.oir", res), "${1}X")
		got := timingLine.ReplaceAllString(j.status.Result.SummaryText, "${1}X")
		if got != want {
			bad = append(bad, fmt.Sprintf("job %s: summary differs from a direct run:\n%s\nwant:\n%s", j.id, got, want))
		}
	}
	return bad
}
