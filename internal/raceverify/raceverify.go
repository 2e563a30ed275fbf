// Package raceverify implements OWL's dynamic race verifier (§5.2). It
// re-runs the program with thread-specific breakpoints at the two racing
// instructions of a report; when two different threads are suspended at
// the pair and their pending accesses target the same address with at
// least one write, the race has been caught "in the racing moment". The
// verifier then emits security hints — the racing values, the variable's
// name, and whether a NULL-pointer dereference or uninitialized read could
// follow — that feed the static vulnerability analyzer.
//
// The paper builds this on LLDB; here the interpreter's deterministic
// thread suspension provides the same semantics. Livelocks (the program
// spinning without the second thread arriving, or all remaining threads
// blocked on a suspended one) are resolved the way the paper describes:
// by temporarily releasing one of the triggered breakpoints.
package raceverify

import (
	"fmt"
	"sort"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/sched"
)

// MachineFactory builds a fresh machine for one verification run, wired to
// the given scheduler and breakpoint. The OWL pipeline binds this to the
// workload's module, inputs, and arguments.
type MachineFactory func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error)

// Hint is the verifier's output for one report: verification status plus
// the §5.2 security hints.
type Hint struct {
	Report   *race.Report
	Verified bool
	// Attempts is the number of runs used.
	Attempts int

	// ReadVal is the value the read is about to observe; WriteVal the
	// value the write is about to store.
	ReadVal, WriteVal int64
	// VarName names the racing memory at the racing moment.
	VarName string
	// WritesNull is set when the racing write stores 0 into memory that
	// the reading side dereferences — the "NULL pointer dereference can be
	// triggered" hint.
	WritesNull bool
	// ReadsUninitialized is set when the read observes memory never
	// written on this run (still holding its initial zero).
	ReadsUninitialized bool
}

func (h *Hint) String() string {
	if !h.Verified {
		return fmt.Sprintf("race NOT verified after %d attempts: %s", h.Attempts, h.Report.ID())
	}
	s := fmt.Sprintf("race verified on %s: about to read %d, about to write %d",
		h.VarName, h.ReadVal, h.WriteVal)
	if h.WritesNull {
		s += " [NULL-pointer hint]"
	}
	if h.ReadsUninitialized {
		s += " [uninitialized-read hint]"
	}
	return s
}

// Verifier verifies race reports dynamically.
type Verifier struct {
	// Attempts is the number of differently seeded runs per report
	// (default 8). Reports the verifier cannot reproduce within the budget
	// are eliminated — the paper's R.V.E. column in Table 3 — accepting
	// that some real-but-fragile races are lost (§5.2 "two cases ... miss
	// real races").
	Attempts int
	// MaxSteps bounds each run (default 200000).
	MaxSteps int
	// HoldBudget bounds how many steps the verifier waits, after one
	// racing instruction is captured, for the partner thread to arrive
	// (default 15000). A pair that cannot co-arrive within the budget is
	// released and the attempt continues hunting; "catching the race in
	// the racing moment" is inherently a co-arrival property.
	HoldBudget int
}

// New returns a verifier with default budgets.
func New() *Verifier { return &Verifier{Attempts: 8, MaxSteps: 200000, HoldBudget: 15000} }

// Seeds returns the number of seeded attempts per report: attempt s
// runs under sched.NewRandom(s), for s = 1..Seeds().
func (v *Verifier) Seeds() int {
	if v.Attempts <= 0 {
		return 8
	}
	return v.Attempts
}

func (v *Verifier) maxSteps() int {
	if v.MaxSteps <= 0 {
		return 200000
	}
	return v.MaxSteps
}

// Verifiable reports whether the report names both racing instructions.
// The verifier has nothing to break on otherwise: such a report gets a
// hint with zero attempts.
func Verifiable(rep *race.Report) bool {
	return rep.Prev.Instr != nil && rep.Cur.Instr != nil
}

// Verify attempts to catch the report's race in the racing moment,
// running every attempt from step 0.
func (v *Verifier) Verify(mk MachineFactory, rep *race.Report) (*Hint, error) {
	hint := &Hint{Report: rep}
	if !Verifiable(rep) {
		return hint, nil
	}
	for seed := 1; seed <= v.Seeds() && !hint.Verified; seed++ {
		if _, err := v.Attempt(mk, seed, nil, hint); err != nil {
			return nil, err
		}
	}
	return hint, nil
}

// Outcome is what one attempt did, in verifier-loop iterations (one
// iteration is one Step call).
type Outcome struct {
	// Caught reports that the attempt caught the race in the racing
	// moment.
	Caught bool
	// From is the iteration the attempt started at: 0 for a run from
	// step 0, the fork's iteration for a resumed one. The iterations
	// before it were not executed.
	From int
	// End is the iteration the attempt ended at. It is the same whether
	// the attempt resumed from a fork or ran from step 0.
	End int
	// Unrun is set when the attempt was decided "not caught" without a
	// run: the seed's reference never scheduled either racing
	// instruction, so the attempt would have run, without stopping at
	// its pair, to where the reference ended. From and End are that
	// iteration.
	Unrun bool
}

// Attempt runs seed's attempt at the hint's report and records it in the
// hint: Attempts becomes seed, and a caught race sets Verified and the
// racing-moment fields. With a non-nil prefix (which must be seed's) the
// attempt resumes from the prefix's latest fork at or before the
// report's first hit; with a nil one it runs from step 0. Both go
// through the same attempt loop, and the verdict is the same either way.
func (v *Verifier) Attempt(mk MachineFactory, seed int, p *Prefix, hint *Hint) (Outcome, error) {
	rep := hint.Report
	hint.Attempts = seed
	a := &attempt{instrA: rep.Prev.Instr, instrB: rep.Cur.Instr, heldA: -1, heldB: -1,
		passOnce: map[interp.ThreadID]int{}}
	var f *fork
	if p != nil {
		switch d, ok := p.firstHit(rep); {
		case !ok:
			// Not a report the prefix was built for: run from step 0.
		case d < 0:
			return Outcome{From: p.iters, End: p.iters, Unrun: true}, nil
		default:
			f = p.forkAt(d)
		}
	}
	var (
		m    *interp.Machine
		err  error
		from int
	)
	if f != nil {
		from = f.iter
		m, err = interp.Restore(f.snap, interp.Config{Sched: f.rng.Clone(), Breakpoint: a.bp})
	} else {
		m, err = mk(sched.NewRandom(uint64(seed)), a.bp)
	}
	if err != nil {
		return Outcome{}, fmt.Errorf("race verifier: build machine: %w", err)
	}
	caught, end := v.run(a, m, from, hint)
	if caught {
		hint.Verified = true
	}
	return Outcome{Caught: caught, From: from, End: end}, nil
}

// maxForks bounds the fork snapshots one Prefix holds. Snapshots pin
// copy-on-write arena pages for as long as they live; two per round
// keep the stage's memory flat while saving most of the shared stretch.
const maxForks = 2

// forkCost is what taking one fork snapshot costs, in verifier-loop
// iterations: on the full-noise application models, copying the thread
// images, register maps and arena page table takes about as long as
// 300-500 interpreter steps, and building the machine that reaches the
// forks about as long again. (Restoring a fork costs about what building
// a fresh machine does, so resumed attempts pay nothing extra.)
const forkCost = 400

// fork is a point attempts resume from: the reference machine's state at
// the start of verifier-loop iteration iter, and its scheduler's state
// there.
type fork struct {
	iter int
	snap *interp.Snapshot
	rng  *sched.Random
}

// Prefix is the stretch that one seed's attempts share. Under seed s,
// the attempt at report r executes exactly what a run with no
// breakpoint executes until iteration d, the first time either of r's
// racing instructions is scheduled: until then r's breakpoint returns
// BPContinue and sched.Random draws the same numbers. So r's attempt
// may resume from any fork taken at an iteration at or before d, and a
// report whose instructions the reference never schedules is decided
// "not caught" without a run.
//
// A resumed attempt restores the fork's snapshot with only its own
// scheduler and breakpoint, so the machine factory must not attach
// anything else a run depends on.
type Prefix struct {
	// first maps each watched instruction to the iteration the reference
	// first scheduled it at, or -1 if the reference never did.
	first map[*ir.Instr]int
	// iters is how many iterations the reference ran.
	iters int
	forks [maxForks]fork
	n     int
}

// Prefix runs seed's reference for the given reports and places the
// round's forks. The reference steps the program with a breakpoint that
// only records first hits, and stops once every report's pair has been
// scheduled (or the run ends). The forks go at first-hit iterations,
// where they save the most replay; when the saving would not pay for
// reaching them, the round takes none. Only one reference machine is
// live at a time, and at most maxForks snapshots outlive it.
func (v *Verifier) Prefix(mk MachineFactory, seed int, reps []*race.Report) (*Prefix, error) {
	p := &Prefix{first: make(map[*ir.Instr]int)}
	if err := v.scan(p, mk, seed, reps); err != nil {
		return nil, err
	}
	var ds []int
	for _, rep := range reps {
		if d, ok := p.firstHit(rep); ok && d >= 0 {
			ds = append(ds, d)
		}
	}
	sort.Ints(ds)
	if at := placeForks(ds); len(at) > 0 {
		if err := p.fork(mk, seed, at); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// scan runs the reference: it records in p.first the iteration at which
// each racing instruction of reps is first scheduled, and stops once
// every report's pair has been scheduled or the run ends.
func (v *Verifier) scan(p *Prefix, mk MachineFactory, seed int, reps []*race.Report) error {
	// watch maps each racing instruction not yet scheduled to the
	// reports it belongs to; hit marks the reports already scheduled.
	watch := make(map[*ir.Instr][]int)
	hit := make([]bool, len(reps))
	unhit := 0
	for i, rep := range reps {
		if !Verifiable(rep) {
			continue
		}
		watch[rep.Prev.Instr] = append(watch[rep.Prev.Instr], i)
		if rep.Cur.Instr != rep.Prev.Instr {
			watch[rep.Cur.Instr] = append(watch[rep.Cur.Instr], i)
		}
		unhit++
	}
	if unhit == 0 {
		return nil
	}
	iter := 0
	record := func(_ *interp.Machine, _ *interp.Thread, in *ir.Instr) interp.BPAction {
		if rs, ok := watch[in]; ok {
			p.first[in] = iter
			delete(watch, in)
			for _, r := range rs {
				if !hit[r] {
					hit[r] = true
					unhit--
				}
			}
		}
		return interp.BPContinue
	}
	m, err := mk(sched.NewRandom(uint64(seed)), record)
	if err != nil {
		return fmt.Errorf("race verifier: build machine: %w", err)
	}
	for steps := v.maxSteps(); iter < steps && unhit > 0; iter++ {
		if !m.Step() {
			break
		}
	}
	p.iters = iter
	for in := range watch {
		p.first[in] = -1
	}
	return nil
}

// fork re-runs the reference to the fork iterations at (ascending) and
// snapshots it there. Which iterations pay off is only known once the
// scan has seen every first hit, so the forks cannot come from the scan
// itself.
func (p *Prefix) fork(mk MachineFactory, seed int, at []int) error {
	rng := sched.NewRandom(uint64(seed))
	m, err := mk(rng, continueAll)
	if err != nil {
		return fmt.Errorf("race verifier: build machine: %w", err)
	}
	for i := 0; ; i++ {
		if i == at[p.n] {
			p.forks[p.n] = fork{iter: i, snap: m.Snapshot(), rng: rng.Clone()}
			if p.n++; p.n == len(at) {
				return nil
			}
		}
		if !m.Step() {
			return nil
		}
	}
}

// continueAll is the breakpoint of a run that must match the reference
// step for step without stopping anywhere.
func continueAll(*interp.Machine, *interp.Thread, *ir.Instr) interp.BPAction {
	return interp.BPContinue
}

// firstHit returns the iteration at which the reference first scheduled
// either of the report's racing instructions, or -1 if it scheduled
// neither. ok is false for a report the prefix was not built for.
func (p *Prefix) firstHit(rep *race.Report) (d int, ok bool) {
	a, okA := p.first[rep.Prev.Instr]
	b, okB := p.first[rep.Cur.Instr]
	switch {
	case !okA || !okB:
		return 0, false
	case a < 0 || b < 0:
		return max(a, b), true
	default:
		return min(a, b), true
	}
}

// forkAt returns the latest fork at or before iteration d, or nil.
func (p *Prefix) forkAt(d int) *fork {
	for k := p.n - 1; k >= 0; k-- {
		if p.forks[k].iter <= d {
			return &p.forks[k]
		}
	}
	return nil
}

// placeForks picks at most maxForks fork iterations for a round whose
// reports first hit at ds (ascending). An attempt resumes from the latest
// fork at or before its first hit, so forks f1 < f2 skip f1 iterations
// for every report with f1 ≤ d < f2 and f2 for every report with d ≥ f2,
// while reaching them costs a machine build and f2 reference iterations,
// plus a snapshot per fork (forkCost each, the build included). It
// returns the set with the largest positive net saving, or none.
func placeForks(ds []int) []int {
	n := len(ds)
	var best []int
	bestNet := 0
	for b := 0; b < n; b++ {
		if b > 0 && ds[b] == ds[b-1] {
			continue
		}
		late := ds[b] * (n - b)
		if net := late - ds[b] - 2*forkCost; net > bestNet {
			best, bestNet = []int{ds[b]}, net
		}
		for a := 0; a < b; a++ {
			if a > 0 && ds[a] == ds[a-1] {
				continue
			}
			if net := ds[a]*(b-a) + late - ds[b] - 3*forkCost; net > bestNet {
				best, bestNet = []int{ds[a], ds[b]}, net
			}
		}
	}
	return best
}

// attempt is the breakpoint state of one verification run.
type attempt struct {
	instrA, instrB *ir.Instr
	heldA, heldB   interp.ThreadID
	passOnce       map[interp.ThreadID]int
}

// bp suspends the first thread to reach each racing instruction (the
// two must be different threads) and lets a released thread pass its
// instruction once.
func (a *attempt) bp(m *interp.Machine, t *interp.Thread, in *ir.Instr) interp.BPAction {
	if in != a.instrA && in != a.instrB {
		return interp.BPContinue
	}
	if a.passOnce[t.ID] > 0 {
		a.passOnce[t.ID]--
		return interp.BPContinue
	}
	if in == a.instrA && a.heldA < 0 && t.ID != a.heldB {
		a.heldA = t.ID
		return interp.BPSuspend
	}
	if in == a.instrB && a.heldB < 0 && t.ID != a.heldA {
		a.heldB = t.ID
		return interp.BPSuspend
	}
	return interp.BPContinue
}

// release resumes a held thread and lets it pass its instruction once.
func (a *attempt) release(m *interp.Machine, held *interp.ThreadID) {
	m.Resume(*held)
	a.passOnce[*held]++
	*held = -1
}

// run is the attempt loop: it steps m from verifier-loop iteration from
// (the iteration m's state belongs to) and returns whether the racing
// moment was caught and the iteration the attempt ended at. Iterations
// count Step calls, so MaxSteps and HoldBudget bound a resumed attempt
// exactly as they bound one run from step 0.
func (v *Verifier) run(a *attempt, m *interp.Machine, from int, hint *Hint) (bool, int) {
	holdBudget := v.HoldBudget
	if holdBudget <= 0 {
		holdBudget = 15000
	}
	heldSince := -1
	steps := v.maxSteps()
	for i := from; i < steps; i++ {
		if a.heldA >= 0 && a.heldB >= 0 {
			if v.racingMoment(m, a.heldA, a.heldB, hint) {
				return true, i
			}
			// Suspended at the pair but not on the same address (e.g. two
			// different array elements): release the earlier capture and
			// keep hunting.
			a.release(m, &a.heldA)
		}
		switch {
		case a.heldA >= 0 || a.heldB >= 0:
			if heldSince < 0 {
				heldSince = i
			} else if i-heldSince > holdBudget {
				// The partner is not coming: give up this attempt rather
				// than spin the rest of the step budget away.
				return false, i
			}
		default:
			heldSince = -1
		}
		if !m.Step() {
			if m.Stall() != interp.StallSuspended {
				return false, i
			}
			// Livelock: the program cannot make progress while a
			// breakpoint holds a thread others wait on. Temporarily
			// release one triggered breakpoint (§5.2).
			switch {
			case a.heldA >= 0:
				a.release(m, &a.heldA)
			case a.heldB >= 0:
				a.release(m, &a.heldB)
			default:
				return false, i
			}
		}
	}
	return false, steps
}

// racingMoment checks that the two suspended threads' pending accesses
// conflict, and if so extracts the security hints.
func (v *Verifier) racingMoment(m *interp.Machine, ta, tb interp.ThreadID, hint *Hint) bool {
	pa, okA := m.Pending(ta)
	pb, okB := m.Pending(tb)
	if !okA || !okB {
		return false
	}
	if pa.Addr != pb.Addr {
		return false
	}
	if !pa.IsWrite && !pb.IsWrite {
		return false
	}
	// Order so that rd is the read side when there is one.
	rd, wr := pa, pb
	if pa.IsWrite && !pb.IsWrite {
		rd, wr = pb, pa
	}
	hint.VarName = m.Mem().NameFor(pa.Addr)
	hint.ReadVal = rd.Val
	hint.WriteVal = wr.Val
	if wr.IsWrite && wr.Val == 0 && pointerUse(rd.Instr) {
		hint.WritesNull = true
	}
	if !rd.IsWrite && rd.Val == 0 && neverWritten(m, pa.Addr) {
		hint.ReadsUninitialized = true
	}
	// Release both threads so the caller can finish the run if desired.
	m.Resume(ta)
	m.Resume(tb)
	return true
}

// pointerUse reports whether the value loaded by in is later used as an
// address (load/store pointer operand or indirect callee) in the same
// function — the static half of the NULL-pointer hint.
func pointerUse(in *ir.Instr) bool {
	if in == nil || in.Op != ir.OpLoad || in.Dst == "" || in.Fn == nil {
		return false
	}
	derived := map[string]bool{in.Dst: true}
	for _, cand := range in.Fn.Instrs() {
		if cand.Index <= in.Index {
			continue
		}
		switch cand.Op {
		case ir.OpLoad:
			if cand.Args[0].Kind == ir.OperandReg && derived[cand.Args[0].Name] {
				return true
			}
		case ir.OpStore:
			if cand.Args[1].Kind == ir.OperandReg && derived[cand.Args[1].Name] {
				return true
			}
		case ir.OpCall:
			if cand.Callee().Kind == ir.OperandReg && derived[cand.Callee().Name] {
				return true
			}
		case ir.OpGep:
			if cand.Args[0].Kind == ir.OperandReg && derived[cand.Args[0].Name] && cand.Dst != "" {
				derived[cand.Dst] = true
			}
		}
	}
	return false
}

// neverWritten reports whether the address still holds its load-time
// initial image (heuristic: value zero and block is heap — globals have
// declared initializers, so zero there is usually intentional).
func neverWritten(m *interp.Machine, addr int64) bool {
	b := m.Mem().Find(addr)
	return b != nil && b.Kind == interp.BlockHeap && m.Mem().Peek(addr) == 0
}
