package interp_test

import (
	"math/rand"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/sched"
)

// TestSnapshotForkWithClonedRandom pins the fork the race verifier
// resumes attempts from: a snapshot taken mid-run under sched.Random,
// restored with a clone of the scheduler's state at that step, must
// reproduce the uninterrupted run's schedule, output and arena
// fingerprint, on both engines, and so must the original machine
// continuing with its own scheduler. Pause points sweep the whole run,
// so some forks land while a thread sleeps in io_delay.
func TestSnapshotForkWithClonedRandom(t *testing.T) {
	sawSleeper := false
	for progSeed := int64(1); progSeed <= 8; progSeed++ {
		src, inputs := interp.GenSnapProgram(rand.New(rand.NewSource(progSeed)))
		mod, err := ir.Parse("snap_fork_test.oir", src)
		if err != nil {
			t.Fatalf("prog %d: generated program does not parse: %v\n%s", progSeed, err, src)
		}
		for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineBytecode} {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := interp.Config{Module: mod, Inputs: inputs, MaxSteps: 20000, Engine: eng}
				cfg.Sched = sched.NewRandom(seed)
				ref, err := interp.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				steps := ref.Run().Steps
				want := interp.MachineState(ref)

				stride := max(1, steps/50)
				for k := 1; k < steps; k += stride {
					rng := sched.NewRandom(seed)
					cfg.Sched = rng
					mb, err := interp.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < k && mb.Step(); i++ {
					}
					for _, th := range mb.Threads() {
						if th.Status == interp.StatusSleeping {
							sawSleeper = true
						}
					}
					mc, err := interp.Restore(mb.Snapshot(), interp.Config{Sched: rng.Clone()})
					if err != nil {
						t.Fatalf("prog %d %s seed %d k=%d: restore: %v", progSeed, eng, seed, k, err)
					}
					if mc.Engine() != eng {
						t.Fatalf("restored engine = %s, want %s", mc.Engine(), eng)
					}
					mc.Run()
					if got := interp.MachineState(mc); got != want {
						t.Fatalf("prog %d %s seed %d: fork at step %d diverges\n--- want\n%s\n--- got\n%s\nprogram:\n%s",
							progSeed, eng, seed, k, want, got, src)
					}
					mb.Run()
					if got := interp.MachineState(mb); got != want {
						t.Fatalf("prog %d %s seed %d: forked original diverges after step %d\n--- want\n%s\n--- got\n%s",
							progSeed, eng, seed, k, want, got)
					}
				}
			}
		}
	}
	if !sawSleeper {
		t.Error("no fork was taken while a thread slept")
	}
}
