// Package supervise is the pipeline supervisor: it makes worker-pool
// stages crash-safe, cancelable, and degradable. OWL's dynamic stages
// run programs whose crashes are evidence (§6.2 re-executes the target
// to confirm an attack), so a panicking or diverging run must be
// contained — quarantined into a structured record — instead of killing
// the process or silently truncating the result.
//
// A Supervisor scopes one pipeline execution: it carries the root
// context, the per-stage deadline, the retry policy, and the metrics
// collector, and accumulates Quarantined and Degradation records as
// stages close. A StageRun scopes one stage: its ForEach fans jobs over
// a bounded pool where every worker is wrapped in recover(), failed jobs
// retry with exponential backoff, and jobs that cannot start before the
// stage deadline are counted as lost rather than hanging the pipeline.
//
// Determinism contract: quarantine records are collected in run-index
// order and appended stage by stage, retries are keyed per run index,
// and nothing the supervisor records depends on worker count or
// scheduling — so a faulted pipeline under a deterministic fault plan
// (internal/faultinject) produces byte-identical records at any
// -workers value. Wall-clock deadlines are the one nondeterministic
// input; fault-plan tests drive them with context-aware delays that
// lose every run of a stage, which is again deterministic.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/metrics"
)

// Quarantined records one worker run that faulted (panic or error) and
// exhausted its retry budget. The run's partial output is discarded; the
// rest of the stage proceeds.
type Quarantined struct {
	Stage    string `json:"stage"`
	Run      int    `json:"run"`
	Reason   string `json:"reason"`
	Attempts int    `json:"attempts"`
}

func (q Quarantined) String() string {
	return fmt.Sprintf("quarantined %s run %d after %d attempt(s): %s",
		q.Stage, q.Run, q.Attempts, q.Reason)
}

// Degradation records one stage that lost work: which stage, why, and
// how many runs were lost (quarantined plus skipped/canceled). Later
// stages consume whatever partial results the degraded stage produced.
type Degradation struct {
	Stage    string `json:"stage"`
	Reason   string `json:"reason"` // "timeout", "canceled", or "quarantine"
	RunsLost int    `json:"runs_lost"`
	Detail   string `json:"detail,omitempty"`
}

func (d Degradation) String() string {
	s := fmt.Sprintf("stage %s degraded (%s): %d run(s) lost", d.Stage, d.Reason, d.RunsLost)
	if d.Detail != "" {
		s += " — " + d.Detail
	}
	return s
}

// Config tunes a Supervisor. The zero value supervises with no deadline,
// no retries, and no fault plan.
type Config struct {
	// Ctx is the root context; canceling it stops every stage at the
	// next job boundary (default context.Background()).
	Ctx context.Context
	// StageTimeout is the per-stage deadline (0 = none). Each StageRun
	// derives its context with this timeout from the root.
	StageTimeout time.Duration
	// Retries is the number of extra attempts a faulted run gets before
	// being quarantined (0 = quarantine on first fault).
	Retries int
	// Backoff is the base delay between retry attempts, doubling per
	// attempt (default 1ms). Sleeps are context-aware.
	Backoff time.Duration
	// Faults is the optional deterministic fault plan; workers reach it
	// via StageRun.Inject and StageRun.StepBudget.
	Faults *faultinject.Plan
	// Metrics receives pool instrumentation plus the supervisor counters
	// <prefix>.quarantined / .retries / .timeouts / .degraded_stages.
	Metrics *metrics.Collector
	// MetricsPrefix namespaces the supervisor counters (default "owl").
	MetricsPrefix string
	// CancelOnFault cancels a stage's context as soon as one of its runs
	// is quarantined — the fail-everything-fast pool policy
	// eval.BuildTablesParallel uses so a failed workload releases every
	// worker slot promptly.
	CancelOnFault bool
}

// Supervisor scopes one pipeline execution.
type Supervisor struct {
	cfg Config

	mu          sync.Mutex
	quarantined []Quarantined
	degraded    []Degradation
	retries     int
	timeouts    int
}

// New returns a Supervisor for one pipeline execution.
func New(cfg Config) *Supervisor {
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = time.Millisecond
	}
	if cfg.MetricsPrefix == "" {
		cfg.MetricsPrefix = "owl"
	}
	return &Supervisor{cfg: cfg}
}

// Ctx returns the root context.
func (s *Supervisor) Ctx() context.Context { return s.cfg.Ctx }

// Err returns the root context's error, if any.
func (s *Supervisor) Err() error { return s.cfg.Ctx.Err() }

// Quarantined returns the quarantine records accumulated so far, in
// stage-then-run order.
func (s *Supervisor) Quarantined() []Quarantined {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Quarantined(nil), s.quarantined...)
}

// Degraded returns the degradation records accumulated so far, one per
// degraded stage, in stage order.
func (s *Supervisor) Degraded() []Degradation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Degradation(nil), s.degraded...)
}

// Counts returns the aggregate quarantine/retry/timeout tallies.
func (s *Supervisor) Counts() (quarantined, retries, timeouts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.quarantined), s.retries, s.timeouts
}

// StageRun scopes one stage of the pipeline: a deadline-bounded context,
// a wall timer, and the stage's share of quarantine/loss accounting.
// Obtain with Supervisor.Stage; finish with Close.
type StageRun struct {
	sup    *Supervisor
	name   string
	ctx    context.Context
	cancel context.CancelFunc
	stop   func() // wall timer

	mu          sync.Mutex
	quarantined []Quarantined
	retries     int
	lost        int // runs skipped or canceled before completing
	completed   int
}

// Stage opens a stage: starts its wall timer and derives its context
// (with the per-stage deadline, when configured) from the root.
func (s *Supervisor) Stage(name string) *StageRun {
	st := &StageRun{sup: s, name: name, stop: s.cfg.Metrics.Stage(name)}
	if s.cfg.StageTimeout > 0 {
		st.ctx, st.cancel = context.WithTimeout(s.cfg.Ctx, s.cfg.StageTimeout)
	} else {
		st.ctx, st.cancel = context.WithCancel(s.cfg.Ctx)
	}
	return st
}

// Ctx returns the stage context. Workers pass it to cancellation-aware
// work between interpreter runs.
func (st *StageRun) Ctx() context.Context { return st.ctx }

// Inject is the stage's fault-injection point for the given run index;
// see faultinject.Plan.Point.
func (st *StageRun) Inject(run int) error {
	return st.sup.cfg.Faults.Point(st.ctx, st.name, run)
}

// StepBudget returns the interpreter step budget for the run: the fault
// plan's override, or def.
func (st *StageRun) StepBudget(run int, def int) int {
	return st.sup.cfg.Faults.StepBudget(st.name, run, def)
}

// isCancel reports whether the error is context cancellation — a lost
// run, not a fault, so it is never retried or quarantined.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// panicReason renders a recovered panic value for a quarantine record.
func panicReason(r interface{}) string {
	switch v := r.(type) {
	case *faultinject.Panic:
		return "panic: " + v.String()
	case error:
		return "panic: " + v.Error()
	default:
		return fmt.Sprintf("panic: %v", v)
	}
}

// guarded runs fn for run index idx with recover().
func guarded(ctx context.Context, fn func(ctx context.Context, i int) error, idx int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = errors.New(panicReason(r))
		}
	}()
	if e := fn(ctx, idx); e != nil {
		if isCancel(e) {
			return e
		}
		return fmt.Errorf("error: %w", e)
	}
	return nil
}

// runJob executes one job with the retry policy, returning its
// quarantine record (nil on success) and whether it was lost to
// cancellation. retried counts the extra attempts spent.
func (st *StageRun) runJob(idx int, fn func(ctx context.Context, i int) error) (q *Quarantined, lost bool, retried int) {
	cfg := &st.sup.cfg
	attempts := 0
	for {
		if st.ctx.Err() != nil {
			return nil, true, retried
		}
		attempts++
		err := guarded(st.ctx, fn, idx)
		if err == nil {
			return nil, false, retried
		}
		if isCancel(err) {
			return nil, true, retried
		}
		if attempts <= cfg.Retries {
			retried++
			// Exponential backoff before the next attempt, context-aware
			// so a dying stage does not hold its worker slot.
			d := cfg.Backoff << (attempts - 1)
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-st.ctx.Done():
				t.Stop()
				return nil, true, retried
			}
			t.Stop()
			continue
		}
		return &Quarantined{Stage: st.name, Run: idx, Reason: err.Error(), Attempts: attempts}, false, retried
	}
}

// ForEach runs fn(ctx, base+i) for every i in [0,n) over a bounded pool
// of workers, each wrapped in recover() with the retry policy. Jobs that
// cannot start (or are cut short) after the stage context ends are
// counted as lost. Per-run outcomes land in run-index order regardless
// of worker interleaving. It returns the number of jobs that completed.
func (st *StageRun) ForEach(base, n, workers int, fn func(ctx context.Context, i int) error) int {
	if n <= 0 {
		return 0
	}
	runs := make([]int, n)
	for i := range runs {
		runs[i] = base + i
	}
	return st.ForEachRun(runs, workers, fn)
}

// ForEachRun is ForEach over an explicit list of run indices. A stage
// that works in rounds runs each round over only the runs still
// pending, so a run that already finished is neither repeated nor
// counted lost a second time when the stage deadline passes. The
// stage's quarantine records stay in run-index order across rounds.
func (st *StageRun) ForEachRun(runs []int, workers int, fn func(ctx context.Context, i int) error) int {
	n := len(runs)
	if n == 0 {
		return 0
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	mc := st.sup.cfg.Metrics
	mc.SetWorkers(st.name, workers)

	quar := make([]*Quarantined, n)
	lostFlags := make([]bool, n)
	retriedBy := make([]int, n)
	one := func(i int) {
		start := time.Now()
		q, lost, retried := st.runJob(runs[i], fn)
		mc.AddBusy(st.name, time.Since(start))
		quar[i], lostFlags[i], retriedBy[i] = q, lost, retried
		if q != nil && st.sup.cfg.CancelOnFault {
			st.cancel()
		}
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			one(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					one(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}

	completed := 0
	st.mu.Lock()
	for i := 0; i < n; i++ {
		st.retries += retriedBy[i]
		switch {
		case quar[i] != nil:
			st.quarantined = append(st.quarantined, *quar[i])
		case lostFlags[i]:
			st.lost++
		default:
			completed++
		}
	}
	sort.SliceStable(st.quarantined, func(a, b int) bool {
		return st.quarantined[a].Run < st.quarantined[b].Run
	})
	st.completed += completed
	st.mu.Unlock()
	return completed
}

// Guard runs one inline section under the stage's recover/retry policy
// (run index idx keys fault injection). It reports whether the section
// completed.
func (st *StageRun) Guard(idx int, fn func(ctx context.Context) error) bool {
	return st.ForEach(idx, 1, 1, func(ctx context.Context, _ int) error {
		return fn(ctx)
	}) == 1
}

// Faulted reports whether the stage lost any work so far — quarantined
// runs, or runs lost to cancellation or the stage deadline.
func (st *StageRun) Faulted() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.quarantined) > 0 || st.lost > 0
}

// FirstQuarantine returns the earliest quarantine record by run index,
// or nil — the deterministic "first failure" CancelOnFault pools report.
func (st *StageRun) FirstQuarantine() *Quarantined {
	st.mu.Lock()
	defer st.mu.Unlock()
	var first *Quarantined
	for i := range st.quarantined {
		q := &st.quarantined[i]
		if first == nil || q.Run < first.Run {
			first = q
		}
	}
	if first == nil {
		return nil
	}
	cp := *first
	return &cp
}

// Close finishes the stage: stops the wall timer, folds the stage's
// records into the supervisor, bumps the supervisor counters, and
// returns the stage's Degradation record (nil when the stage lost
// nothing). Close must be called exactly once.
func (st *StageRun) Close() *Degradation {
	timedOut := errors.Is(st.ctx.Err(), context.DeadlineExceeded) && st.sup.cfg.Ctx.Err() == nil
	canceled := st.sup.cfg.Ctx.Err() != nil
	st.cancel()
	st.stop()

	st.mu.Lock()
	nq, lost, retries := len(st.quarantined), st.lost, st.retries
	quar := st.quarantined
	st.mu.Unlock()

	var deg *Degradation
	if nq > 0 || lost > 0 {
		deg = &Degradation{Stage: st.name, RunsLost: nq + lost}
		switch {
		case timedOut:
			deg.Reason = "timeout"
			deg.Detail = fmt.Sprintf("stage deadline %s exceeded", st.sup.cfg.StageTimeout)
		case canceled:
			deg.Reason = "canceled"
		default:
			deg.Reason = "quarantine"
		}
		if deg.Detail == "" && nq > 0 {
			deg.Detail = quar[0].Reason
		}
	}

	s := st.sup
	s.mu.Lock()
	s.quarantined = append(s.quarantined, quar...)
	s.retries += retries
	if timedOut {
		s.timeouts++
	}
	if deg != nil {
		s.degraded = append(s.degraded, *deg)
	}
	s.mu.Unlock()

	mc := s.cfg.Metrics
	pfx := s.cfg.MetricsPrefix
	if nq > 0 {
		mc.Count(pfx+".quarantined", int64(nq))
	}
	if retries > 0 {
		mc.Count(pfx+".retries", int64(retries))
	}
	if timedOut {
		mc.Count(pfx+".timeouts", 1)
	}
	if deg != nil {
		mc.Count(pfx+".degraded_stages", 1)
	}
	return deg
}

// FaultErr renders the stage's failure as an error naming the stage —
// what fail-fast pipelines return instead of degrading.
func (st *StageRun) FaultErr() error {
	st.mu.Lock()
	nq, lost := len(st.quarantined), st.lost
	var first string
	if nq > 0 {
		first = st.quarantined[0].Reason
	}
	st.mu.Unlock()
	// Wrap the context error where one is the cause, so callers can
	// errors.Is-distinguish a sibling's cancellation from a real fault.
	switch {
	case errors.Is(st.ctx.Err(), context.DeadlineExceeded):
		return fmt.Errorf("stage %s timed out, %d run(s) lost: %w", st.name, nq+lost, st.ctx.Err())
	case nq > 0:
		return fmt.Errorf("stage %s faulted: %d run(s) quarantined (first: %s)", st.name, nq, first)
	case st.ctx.Err() != nil && lost > 0:
		return fmt.Errorf("stage %s canceled, %d run(s) lost: %w", st.name, lost, st.ctx.Err())
	case lost > 0:
		return fmt.Errorf("stage %s lost %d run(s)", st.name, lost)
	default:
		return nil
	}
}
