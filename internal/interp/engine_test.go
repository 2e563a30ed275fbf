package interp_test

import (
	"slices"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/sched"
)

const planWindowSrc = `
func @worker() {
entry:
  jmp loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  %i2 = add %i, 1
  %c = icmp lt %i2, 200
  br %c, loop, done
done:
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@worker)
  %r = call @join(%t)
  ret 0
}
`

// TestEnginePlanWindowClamp is the regression test for the compiled
// engine's planned window: a window cut short after more than half the
// plan buffer's length must not size the next window past the buffer.
// The worker's loop keeps the window growing until main's join ends
// it deep into a plan; the bytecode run must then finish exactly like
// the tree run.
func TestEnginePlanWindowClamp(t *testing.T) {
	run := func(engine interp.Engine) *interp.Result {
		return newMachine(t, planWindowSrc, engine, sched.NewRandom(1)).Run()
	}
	tree, bc := run(interp.EngineTree), run(interp.EngineBytecode)
	if tree.Steps != 606 {
		t.Fatalf("tree run took %d steps, want 606", tree.Steps)
	}
	if bc.Steps != tree.Steps || bc.Stall != tree.Stall || !slices.Equal(bc.Schedule, tree.Schedule) {
		t.Fatalf("bytecode run (%d steps, %s) diverges from tree run (%d steps, %s)",
			bc.Steps, bc.Stall, tree.Steps, tree.Stall)
	}
}
