package race

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/sched"
)

// eventRecorder records every event as a flat descriptor string so two
// runs can be compared event-by-event. It deliberately declares no
// stack need (no StackPolicy refinement here) so the recorder itself
// does not change which events carry stacks.
type eventRecorder struct {
	events []string
}

func (r *eventRecorder) OnEvent(m *interp.Machine, e interp.Event) {
	loc := "?"
	if e.Instr != nil {
		loc = fmt.Sprintf("%s#%d@%s", e.Instr.Fn.Name, e.Instr.Index, e.Instr.Loc())
	}
	r.events = append(r.events, fmt.Sprintf("step=%d kind=%s tid=%d addr=%d val=%d aux=%d in=%s",
		e.Step, e.Kind, e.TID, e.Addr, e.Val, e.Aux, loc))
}

// stackRecorder additionally materializes call stacks for accesses,
// exercising the StackRef capture path under both engines.
type stackRecorder struct {
	eventRecorder
	m *interp.Machine
}

func (r *stackRecorder) NeedsStack(k interp.EventKind) bool {
	return k == interp.EvRead || k == interp.EvWrite
}

func (r *stackRecorder) OnEvent(m *interp.Machine, e interp.Event) {
	r.eventRecorder.OnEvent(m, e)
	if e.IsAccess() {
		r.events = append(r.events, "stack:\n"+m.EventStack(e).String())
	}
}

// runFingerprint renders everything observable about a finished run:
// result summary, faults (with stacks), output, schedule trace, and
// the arena fingerprint.
func runFingerprint(res *interp.Result, m *interp.Machine) string {
	s := fmt.Sprintf("exit=%d steps=%d stall=%s uid=%d truncated=%v\n",
		res.ExitCode, res.Steps, res.Stall, res.UID, res.MaxStepsHit)
	s += fmt.Sprintf("schedule=%v\n", res.Schedule)
	for _, f := range res.Faults {
		s += fmt.Sprintf("fault: %s addr=%d step=%d\nstack:\n%s\n", f.Error(), f.Addr, f.Step, f.Stack)
	}
	s += fmt.Sprintf("output=%q\n", res.Output)
	s += fmt.Sprintf("exec=%q\n", m.ExecLog())
	s += fmt.Sprintf("arena=%#x\n", m.Mem().Fingerprint())
	return s
}

// diffEngines runs mod under both engines with identical scheduler
// seeds and returns the two full observable transcripts.
func diffEngines(t *testing.T, mod *ir.Module, schedSeed uint64, stacks bool) (tree, bc string) {
	t.Helper()
	run := func(engine interp.Engine) string {
		var rec interface {
			interp.Observer
		}
		var events *[]string
		if stacks {
			sr := &stackRecorder{}
			rec, events = sr, &sr.events
		} else {
			er := &eventRecorder{}
			rec, events = er, &er.events
		}
		d := NewDetector()
		m, err := interp.New(interp.Config{
			Module: mod, Sched: sched.NewRandom(schedSeed),
			Engine:    engine,
			Observers: []interp.Observer{d, rec},
		})
		if err != nil {
			t.Fatalf("engine %s: new machine: %v", engine, err)
		}
		res := m.Run()
		s := runFingerprint(res, m)
		s += fmt.Sprintf("reports=%v\n", reportSet(d.Reports()))
		for _, e := range *events {
			s += e + "\n"
		}
		return s
	}
	return run(interp.EngineTree), run(interp.EngineBytecode)
}

// TestDifferentialEngines is the compiled engine's semantic gate: a
// grid of generated concurrent programs × seeded random schedules must
// produce byte-identical transcripts (events, faults, output, schedule
// trace, arena fingerprint, race reports) under the tree-walking and
// bytecode engines. The scheduler is consulted identically step by
// step, so any divergence is an engine bug, not schedule noise.
func TestDifferentialEngines(t *testing.T) {
	for progSeed := int64(1); progSeed <= 25; progSeed++ {
		src := genProgram(rand.New(rand.NewSource(progSeed)))
		mod, err := ir.Parse("enginediff_test.oir", src)
		if err != nil {
			t.Fatalf("prog %d: generated program does not parse: %v\n%s", progSeed, err, src)
		}
		for schedSeed := uint64(1); schedSeed <= 4; schedSeed++ {
			tree, bc := diffEngines(t, mod, schedSeed, false)
			if tree != bc {
				t.Fatalf("prog %d sched %d: engines diverge\nprogram:\n%s\n--- tree ---\n%s\n--- bytecode ---\n%s",
					progSeed, schedSeed, src, tree, bc)
			}
		}
	}
}

// TestDifferentialEngineStacks re-runs a slice of the grid with an
// observer that demands materialized call stacks for every access,
// pinning StackRef capture and EventStack rendering to byte equality
// across engines (compiled frames must report the same function,
// position, and caller chain as tree frames).
func TestDifferentialEngineStacks(t *testing.T) {
	for progSeed := int64(1); progSeed <= 8; progSeed++ {
		src := genProgram(rand.New(rand.NewSource(progSeed)))
		mod, err := ir.Parse("enginediff_test.oir", src)
		if err != nil {
			t.Fatalf("prog %d: parse: %v", progSeed, err)
		}
		tree, bc := diffEngines(t, mod, 3, true)
		if tree != bc {
			t.Fatalf("prog %d: stack transcripts diverge\nprogram:\n%s\n--- tree ---\n%s\n--- bytecode ---\n%s",
				progSeed, src, tree, bc)
		}
	}
}

// TestNoObserverBytecodeStepIsAllocationFree extends the per-step
// allocation pin to the compiled engine: the no-observer bytecode step
// must not touch the heap either.
func TestNoObserverBytecodeStepIsAllocationFree(t *testing.T) {
	m := stepLoopEngine(t, interp.EngineBytecode)
	for i := 0; i < 50_000; i++ {
		if !m.Step() {
			t.Fatal("program ended during warmup")
		}
	}
	avg := testing.AllocsPerRun(20_000, func() {
		if !m.Step() {
			t.Fatal("program ended during measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("no-observer bytecode step allocates %.2f allocs/op, want 0", avg)
	}
}

// TestSameEpochDetectorBytecodeStepIsAllocationFree pins the
// detector-attached same-epoch fast path at zero allocations under the
// compiled engine too.
func TestSameEpochDetectorBytecodeStepIsAllocationFree(t *testing.T) {
	d := NewDetector()
	m := stepLoopEngine(t, interp.EngineBytecode, d)
	for i := 0; i < 50_000; i++ {
		if !m.Step() {
			t.Fatal("program ended during warmup")
		}
	}
	avg := testing.AllocsPerRun(20_000, func() {
		if !m.Step() {
			t.Fatal("program ended during measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("same-epoch bytecode step allocates %.2f allocs/op, want 0", avg)
	}
}

// FuzzEngineDiff is the standing form of the differential grid: the
// fuzz input picks the generated program and the schedule seed, and
// both engines must produce byte-identical transcripts. The seed corpus
// runs with every plain `go test`; `make fuzz-smoke` explores beyond it
// for a bounded time.
func FuzzEngineDiff(f *testing.F) {
	for _, s := range []struct {
		prog  int64
		sched uint64
	}{{1, 1}, {3, 2}, {12, 4}, {25, 3}, {101, 7}} {
		f.Add(s.prog, s.sched)
	}
	f.Fuzz(func(t *testing.T, progSeed int64, schedSeed uint64) {
		src := genProgram(rand.New(rand.NewSource(progSeed)))
		mod, err := ir.Parse("fuzz.oir", src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		if tree, bc := diffEngines(t, mod, schedSeed, false); tree != bc {
			t.Fatalf("engines diverge\nprogram:\n%s\n--- tree ---\n%s\n--- bytecode ---\n%s", src, tree, bc)
		}
	})
}
