package raceverify

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/race"
)

// forkSrc has a long run-up (every thread spins in @warm first), so
// rounds take forks, and a schedule-dependent branch: @reader stores @y
// only when it reads @flag before @writer sets it, so under some seeds
// nothing schedules that store. @dead never runs.
const forkSrc = `
global @x = 5
global @y = 0
global @flag = 0

func @warm() {
entry:
  jmp head
head:
  %i = phi [entry: 0], [body: %i2]
  %c = icmp lt %i, 300
  br %c, body, done
body:
  %i2 = add %i, 1
  jmp head
done:
  ret 0
}
func @writer() {
entry:
  %w = call @warm()
  store 1, @flag
  store 7, @x
  ret 0
}
func @reader() {
entry:
  %w = call @warm()
  %f = load @flag
  %c = icmp eq %f, 0
  br %c, early, late
early:
  store 3, @y
  ret 0
late:
  %v = load @x
  call @print(%v)
  ret 0
}
func @other() {
entry:
  %w = call @warm()
  %u = load @y
  ret 0
}
func @dead() {
entry:
  store 9, @x
  %d = load @x
  ret 0
}
func @main() {
entry:
  %w = call @warm()
  %t1 = call @spawn(@writer)
  %t2 = call @spawn(@reader)
  %t3 = call @spawn(@other)
  %j1 = call @join(%t1)
  %j2 = call @join(%t2)
  %j3 = call @join(%t3)
  ret 0
}
`

// access returns the n-th load or store of fn.
func access(t *testing.T, mod *ir.Module, fn string, op ir.Op, n int) *ir.Instr {
	t.Helper()
	for _, in := range mod.Func(fn).Instrs() {
		if in.Op == op {
			if n == 0 {
				return in
			}
			n--
		}
	}
	t.Fatalf("@%s has no such access", fn)
	return nil
}

// TestPrefixAttemptsMatchFresh checks the Prefix invariant on a program
// built to exercise every attempt start: every attempt resumed from a
// fork, decided without a run, or run from step 0 under a Prefix (which
// is how the prefix treats report 0, left out of it) must end at the
// same iteration, with the same verdict and hint, as the same seed's
// attempt run from step 0 with no Prefix.
func TestPrefixAttemptsMatchFresh(t *testing.T) {
	mod := ir.MustParse("fork_test.oir", forkSrc)
	pair := func(a, b *ir.Instr) *race.Report {
		return &race.Report{Prev: race.Access{IsWrite: a.Op == ir.OpStore, Instr: a}, Cur: race.Access{IsWrite: b.Op == ir.OpStore, Instr: b}}
	}
	reps := []*race.Report{
		pair(access(t, mod, "writer", ir.OpStore, 1), access(t, mod, "reader", ir.OpLoad, 1)),
		pair(access(t, mod, "reader", ir.OpStore, 0), access(t, mod, "other", ir.OpLoad, 0)),
		pair(access(t, mod, "reader", ir.OpStore, 0), access(t, mod, "dead", ir.OpLoad, 0)),
		pair(access(t, mod, "dead", ir.OpStore, 0), access(t, mod, "dead", ir.OpLoad, 0)),
		pair(access(t, mod, "writer", ir.OpStore, 0), access(t, mod, "reader", ir.OpLoad, 0)),
	}
	mk := func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
		return interp.New(interp.Config{Module: mod, Sched: s, Breakpoint: bp, MaxSteps: 100000})
	}
	v := New()
	var resumed, unrun, caught int
	for seed := 1; seed <= v.Seeds(); seed++ {
		p, err := v.Prefix(mk, seed, reps[1:])
		if err != nil {
			t.Fatal(err)
		}
		if p.n > maxForks {
			t.Fatalf("seed %d: prefix holds %d forks, at most %d allowed", seed, p.n, maxForks)
		}
		for i, rep := range reps {
			hs, hf := &Hint{Report: rep}, &Hint{Report: rep}
			shared, err := v.Attempt(mk, seed, p, hs)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := v.Attempt(mk, seed, nil, hf)
			if err != nil {
				t.Fatal(err)
			}
			if shared.Caught != fresh.Caught || shared.End != fresh.End || fmt.Sprint(*hs) != fmt.Sprint(*hf) {
				t.Errorf("seed %d report %d: resumed from %d: %+v %v; from step 0: %+v %v", seed, i, shared.From, shared, *hs, fresh, *hf)
			}
			switch {
			case i == 0 && (shared.From != 0 || shared.Unrun):
				t.Errorf("seed %d: report 0 is not in the prefix but started at %d (unrun %v)", seed, shared.From, shared.Unrun)
			case shared.Unrun:
				unrun++
			case shared.From > 0:
				resumed++
			}
			if shared.Caught {
				caught++
			}
		}
	}
	if resumed == 0 || unrun == 0 || caught == 0 {
		t.Fatalf("attempts resumed %d, unrun %d, caught %d: every kind must occur", resumed, unrun, caught)
	}
}

// TestPlaceForks pins the fork-placement rule: forks sit at first-hit
// iterations, at most maxForks of them, and only when the iterations
// they save exceed what reaching and taking them costs.
func TestPlaceForks(t *testing.T) {
	for _, c := range []struct {
		ds   []int
		want string
	}{
		{nil, "[]"},
		{[]int{40, 50, 60}, "[]"},           // saves less than it costs
		{[]int{5000}, "[]"},                 // one report: reaching it costs what it saves
		{[]int{5000, 5000, 5000}, "[5000]"}, // one cluster
		{[]int{10, 5000, 5000, 9000, 9000, 9000}, "[5000 9000]"}, // two clusters
		{[]int{1000, 1000, 1000, 1000, 9000}, "[1000]"},          // the late report alone does not pay for its fork
	} {
		if got := fmt.Sprint(placeForks(c.ds)); got != c.want {
			t.Errorf("placeForks(%v) = %s, want %s", c.ds, got, c.want)
		}
	}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		ds := make([]int, r.Intn(40))
		for i := range ds {
			ds[i] = r.Intn(20000)
		}
		sort.Ints(ds)
		at := placeForks(ds)
		if len(at) > maxForks {
			t.Fatalf("placeForks(%v) took %d forks", ds, len(at))
		}
		for k, f := range at {
			if !slices.Contains(ds, f) || k > 0 && f <= at[k-1] {
				t.Fatalf("placeForks(%v) = %v: forks must be ascending first-hit iterations", ds, at)
			}
		}
	}
}
