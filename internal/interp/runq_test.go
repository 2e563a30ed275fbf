package interp_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/workloads"
)

var engines = []interp.Engine{interp.EngineTree, interp.EngineBytecode}

// scanRunnable is the definition the runnable queue maintains: the
// threads Runnable at step, ascending.
func scanRunnable(m *interp.Machine, step int) []interp.ThreadID {
	var ids []interp.ThreadID
	for _, th := range m.Threads() {
		if th.Runnable(step) {
			ids = append(ids, th.ID)
		}
	}
	return ids
}

// checkSched wraps a planning scheduler and checks every set the machine
// offers it against scanRunnable. It reaches the compiled engine's
// batched loop (per-step, fused, and planned paths), which hand-stepping
// through Step does not.
type checkSched struct {
	inner  interp.PlanningScheduler
	m      *interp.Machine
	t      *testing.T
	offers int
}

func (s *checkSched) check(runnable []interp.ThreadID, step int) {
	s.offers++
	if want := scanRunnable(s.m, step); !slices.Equal(runnable, want) {
		s.t.Fatalf("step %d: scheduler offered %v, scan %v", step, runnable, want)
	}
}

func (s *checkSched) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	s.check(runnable, step)
	return s.inner.Next(runnable, step)
}

func (s *checkSched) Plan(runnable []interp.ThreadID, step int, buf []interp.ThreadID) int {
	s.check(runnable, step)
	return s.inner.Plan(runnable, step, buf)
}

func (s *checkSched) Advance(runnable []interp.ThreadID, step, k int) {
	s.inner.Advance(runnable, step, k)
}

// stepChecked hand-steps m to the end, checking the queue invariant
// before the first step and after every step. each, when non-nil, runs
// after every step and gets the step count from before it.
func stepChecked(t *testing.T, m *interp.Machine, each func(before int)) {
	t.Helper()
	if err := interp.CheckRunQueue(m); err != nil {
		t.Fatal(err)
	}
	for before := m.StepCount(); m.Step(); before = m.StepCount() {
		if each != nil {
			each(before)
		}
		if err := interp.CheckRunQueue(m); err != nil {
			t.Fatal(err)
		}
	}
}

// checkBatched runs src in the compiled engine's batched loop (or the
// tree engine's Step loop) under a checking scheduler and requires it to
// end where the hand-stepped run ended.
func checkBatched(t *testing.T, src string, engine interp.Engine, seed uint64, wantSteps int) {
	t.Helper()
	cs := &checkSched{inner: sched.NewRandom(seed), t: t}
	cs.m = newMachine(t, src, engine, cs)
	if r := cs.m.Run(); r.Stall != interp.StallDone || r.Steps != wantSteps {
		t.Fatalf("%s seed %d: batched run ended at step %d (%s), hand-stepped at %d",
			engine, seed, r.Steps, r.Stall, wantSteps)
	}
}

func workloadMachine(t *testing.T, w *workloads.Workload, rec workloads.Recipe, engine interp.Engine,
	s interp.Scheduler, bp interp.BreakpointFunc) *interp.Machine {
	t.Helper()
	m, err := interp.New(interp.Config{
		Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps,
		Sched: s, Engine: engine, Breakpoint: bp,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// holdingBreakpoint is shaped like the race verifier's: it suspends the
// first thread to reach a store while no thread is held, the test loop
// releases it after a fixed number of steps (or at once when the machine
// stalls on it), and the released thread passes that breakpoint once.
type holdingBreakpoint struct {
	held      interp.ThreadID
	heldSince int
	pass      map[interp.ThreadID]bool
}

func (b *holdingBreakpoint) hit(m *interp.Machine, th *interp.Thread, in *ir.Instr) interp.BPAction {
	if in.Op != ir.OpStore || b.held >= 0 {
		return interp.BPContinue
	}
	if b.pass[th.ID] {
		delete(b.pass, th.ID)
		return interp.BPContinue
	}
	b.held, b.heldSince = th.ID, m.StepCount()
	return interp.BPSuspend
}

func (b *holdingBreakpoint) release(m *interp.Machine) {
	m.Resume(b.held)
	b.pass[b.held] = true
	b.held = -1
}

const sleeperSrc = `
global @g = 0
func @sleeper() {
entry:
  call @io_delay(20)
  store 1, @g
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@sleeper)
  jmp loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  %i2 = add %i, 1
  %c = icmp lt %i2, 60
  br %c, loop, done
done:
  %r = call @join(%t)
  ret 0
}
`

// stepUntilAsleep steps m until thread id is sleeping.
func stepUntilAsleep(t *testing.T, m *interp.Machine, id interp.ThreadID) {
	t.Helper()
	for {
		if th := m.Thread(id); th != nil && th.Status == interp.StatusSleeping {
			return
		}
		if !m.Step() {
			t.Fatalf("machine stopped before thread %d slept", id)
		}
		if err := interp.CheckRunQueue(m); err != nil {
			t.Fatal(err)
		}
	}
}

func stepN(t *testing.T, m *interp.Machine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !m.Step() {
			t.Fatalf("machine stopped after %d of %d steps", i, n)
		}
		if err := interp.CheckRunQueue(m); err != nil {
			t.Fatal(err)
		}
	}
}

func newMachine(t *testing.T, src string, engine interp.Engine, s interp.Scheduler) *interp.Machine {
	t.Helper()
	m, err := interp.New(interp.Config{Module: ir.MustParse("runq.oir", src), Sched: s, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkSuspendSleeping suspends a sleeping thread and resumes it both
// before and after its wake-up step: suspended, it is in neither the
// queue nor the heap; resumed, it lands in whichever its wake-up step
// says.
func checkSuspendSleeping(t *testing.T) {
	for _, engine := range engines {
		t.Run(string(engine), func(t *testing.T) {
			for _, late := range []bool{false, true} {
				m := newMachine(t, sleeperSrc, engine, sched.NewRandom(2))
				stepUntilAsleep(t, m, 1)
				wake := m.Thread(1).SleepUntil
				m.Suspend(1)
				if err := interp.CheckRunQueue(m); err != nil {
					t.Fatal(err)
				}
				n := 2
				if late {
					n = wake - m.StepCount() + 5
				}
				stepN(t, m, n)
				if slices.Contains(scanRunnable(m, m.StepCount()), 1) {
					t.Fatal("suspended sleeper is runnable")
				}
				m.Resume(1)
				if err := interp.CheckRunQueue(m); err != nil {
					t.Fatal(err)
				}
				if got := m.Thread(1).Runnable(m.StepCount()); got != late {
					t.Fatalf("late=%v: resumed sleeper runnable=%v at step %d (wakes at %d)",
						late, got, m.StepCount(), wake)
				}
				stepChecked(t, m, nil)
				if st := m.Stall(); st != interp.StallDone {
					t.Fatalf("stall = %v, want done", st)
				}
			}
		})
	}
}

// checkSnapshotMidSleep restores a snapshot taken while a thread
// sleeps, across both engines: the rebuilt queue must match at once,
// and the resumed run must replay the original's schedule.
func checkSnapshotMidSleep(t *testing.T) {
	for _, from := range engines {
		m := newMachine(t, sleeperSrc, from, sched.NewRandom(3))
		stepUntilAsleep(t, m, 1)
		stepN(t, m, 3)
		snap := m.Snapshot()
		done := len(m.Result().Schedule)
		want := m.Run().Schedule
		for _, to := range engines {
			r, err := interp.Restore(snap, interp.Config{Sched: sched.NewReplay(want[done:]), Engine: to})
			if err != nil {
				t.Fatal(err)
			}
			stepChecked(t, r, nil)
			if got := r.Result().Schedule; !slices.Equal(got, want) {
				t.Fatalf("%s->%s: restored schedule %v, want %v", from, to, got, want)
			}
		}
	}
}

const allSleepSrc = `
func @w(%n) {
entry:
  call @io_delay(%n)
  ret 0
}
func @main() {
entry:
  %a = call @spawn(@w, 50)
  %b = call @spawn(@w, 30)
  %c = call @spawn(@w, 70)
  call @io_delay(40)
  %ja = call @join(%a)
  %jb = call @join(%b)
  %jc = call @join(%c)
  ret 0
}
`

const contendedSrc = `
global @mu = 0
global @n = 0
func @worker() {
entry:
  jmp loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  call @mutex_lock(@mu)
  %v = load @n
  call @io_delay(2)
  %v2 = add %v, 1
  store %v2, @n
  call @mutex_unlock(@mu)
  %i2 = add %i, 1
  %c = icmp lt %i2, 5
  br %c, loop, done
done:
  ret 0
}
func @main() {
entry:
  %a = call @spawn(@worker)
  %b = call @spawn(@worker)
  %c = call @spawn(@worker)
  %ja = call @join(%a)
  %jb = call @join(%b)
  %jc = call @join(%c)
  ret 0
}
`

// checkMutexContention runs workers that sleep while holding one mutex,
// so lock attempts block and unlocks wake waiters, hand-stepped and in
// the compiled engine's batched loop.
func checkMutexContention(t *testing.T) {
	for _, engine := range engines {
		for seed := uint64(1); seed <= 3; seed++ {
			m := newMachine(t, contendedSrc, engine, sched.NewRandom(seed))
			blocked := 0
			stepChecked(t, m, func(int) {
				for _, th := range m.Threads() {
					if th.Status == interp.StatusBlockedMutex {
						blocked++
					}
				}
			})
			if blocked == 0 {
				t.Fatalf("%s seed %d: no thread ever blocked on the mutex", engine, seed)
			}
			checkBatched(t, contendedSrc, engine, seed, m.StepCount())
		}
	}
}

// checkAllSleepingJump covers the clock jump taken when every live
// thread sleeps: the step counter skips ahead to the earliest wake-up
// and the queue still matches the scan on both sides of it, hand-stepped
// and in the compiled engine's batched loop.
func checkAllSleepingJump(t *testing.T) {
	for _, engine := range engines {
		m := newMachine(t, allSleepSrc, engine, sched.NewRandom(1))
		jumps := 0
		stepChecked(t, m, func(before int) {
			if m.StepCount()-before > 1 {
				jumps++
			}
		})
		if jumps == 0 {
			t.Fatalf("%s: the clock never jumped", engine)
		}
		checkBatched(t, allSleepSrc, engine, 1, m.StepCount())
	}
}

// TestEngineRunQueueMatchesScan pins the runnable queue to its
// definition: after every step, on both engines, the queue equals a
// from-scratch filter of Threads() by Runnable(StepCount()), and the
// sleeper heap holds exactly the threads still asleep. It runs every
// registered workload (plain, in the batched loop, and under a holding
// breakpoint), then the corner cases: suspend/resume of a sleeper,
// snapshot/restore mid-sleep, the all-sleeping clock jump, and mutex
// waits and wake-ups.
func TestEngineRunQueueMatchesScan(t *testing.T) {
	t.Run("suspend-sleeping", checkSuspendSleeping)
	t.Run("snapshot-mid-sleep", checkSnapshotMidSleep)
	t.Run("all-sleeping-jump", checkAllSleepingJump)
	t.Run("mutex-contention", checkMutexContention)
	for _, name := range workloads.Names() {
		w := workloads.Get(name, workloads.NoiseLight)
		for _, engine := range engines {
			t.Run(fmt.Sprintf("%s/%s", name, engine), func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					rec := w.Recipes[int(seed)%len(w.Recipes)]
					stepChecked(t, workloadMachine(t, w, rec, engine, sched.NewRandom(seed), nil), nil)
				}
				// Full noise: dozens of io_delay spinners around the workers.
				full := workloads.Get(name, workloads.NoiseFull)
				stepChecked(t, workloadMachine(t, full, full.Recipes[0], engine, sched.NewRandom(1), nil), nil)
				// The batched loop, checked at every scheduler consultation.
				cs := &checkSched{inner: sched.NewRandom(7), t: t}
				cs.m = workloadMachine(t, w, w.Recipes[0], engine, cs, nil)
				cs.m.RunLoop()
				if cs.offers == 0 {
					t.Fatal("scheduler never consulted")
				}
			})
			t.Run(fmt.Sprintf("%s/%s/breakpoint", name, engine), func(t *testing.T) {
				bp := &holdingBreakpoint{held: -1, pass: map[interp.ThreadID]bool{}}
				m := workloadMachine(t, w, w.Recipes[0], engine, sched.NewRandom(5), bp.hit)
				suspensions := 0
				for i := 0; i < w.MaxSteps; i++ {
					if bp.held >= 0 && m.StepCount()-bp.heldSince > 40 {
						bp.release(m)
					}
					if !m.Step() {
						if m.Stall() != interp.StallSuspended {
							break
						}
						bp.release(m)
					}
					if bp.held >= 0 && bp.heldSince == m.StepCount() {
						suspensions++
					}
					if err := interp.CheckRunQueue(m); err != nil {
						t.Fatal(err)
					}
				}
				if suspensions == 0 {
					t.Fatal("breakpoint never suspended a thread")
				}
			})
		}
	}
}
