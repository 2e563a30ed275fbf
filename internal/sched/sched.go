// Package sched provides deterministic thread schedulers for the
// interpreter: round-robin, seeded random, PCT-style priority scheduling,
// recorded-schedule replay, and an exhaustive DFS explorer used by the
// SKI-style kernel detector. All schedulers are deterministic functions of
// their construction parameters, which is what makes OWL's replay-based
// verification possible.
package sched

import (
	"github.com/conanalysis/owl/internal/interp"
)

// RoundRobin cycles through runnable threads, switching threads every
// Quantum steps (default 1, i.e. fully interleaved).
type RoundRobin struct {
	Quantum int
	last    interp.ThreadID
	used    int
}

// NewRoundRobin returns a round-robin scheduler with the given quantum.
func NewRoundRobin(quantum int) *RoundRobin {
	if quantum < 1 {
		quantum = 1
	}
	return &RoundRobin{Quantum: quantum, last: -1}
}

// Next implements interp.Scheduler.
func (s *RoundRobin) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	id, last, used := rrPick(runnable, s.last, s.used, s.Quantum)
	s.last, s.used = last, used
	return id
}

// rrPick is one rotation decision as a pure function of the scheduler
// state, shared by Next and the batched Plan/Advance so the three are
// equivalent by construction: hold last while the quantum allows,
// otherwise the first runnable id strictly greater than last, wrapping.
func rrPick(runnable []interp.ThreadID, last interp.ThreadID, used, quantum int) (interp.ThreadID, interp.ThreadID, int) {
	if last >= 0 && used < quantum {
		for _, id := range runnable {
			if id == last {
				return id, last, used + 1
			}
		}
	}
	for _, id := range runnable {
		if id > last {
			return id, id, 1
		}
	}
	return runnable[0], runnable[0], 1
}

// Plan implements interp.PlanningScheduler. With a fixed runnable set
// the rotation is fully periodic — finish the current thread's
// quantum, then runs of Quantum picks rotating through the set — so
// the window is filled in whole runs rather than per-entry rrPick
// simulation. Equivalence with Next: rrPick holds `last` while
// used < Quantum and last is still runnable, then rotates and resets
// used to 1; each filled run below reproduces exactly those picks.
func (s *RoundRobin) Plan(runnable []interp.ThreadID, step int, buf []interp.ThreadID) int {
	q := s.Quantum
	if q < 1 {
		q = 1 // Quantum 0 rotates every pick, same as 1 (used<0 never holds)
	}
	if q == 1 {
		// Fully interleaved: the sequence is plain cyclic iteration
		// over the set, starting at last's successor.
		n := len(runnable)
		j := rrSuccIdx(runnable, s.last)
		for i := range buf {
			buf[i] = runnable[j]
			if j++; j == n {
				j = 0
			}
		}
		return len(buf)
	}
	i := 0
	last, used := s.last, s.used
	if last >= 0 && used < q && rrContains(runnable, last) {
		for ; i < len(buf) && used < q; i++ {
			buf[i] = last
			used++
		}
	}
	for i < len(buf) {
		last = rrSucc(runnable, last)
		for j := 0; j < q && i < len(buf); j++ {
			buf[i] = last
			i++
		}
	}
	return len(buf)
}

// Advance implements interp.PlanningScheduler: the state after k picks,
// computed run-by-run like Plan.
func (s *RoundRobin) Advance(runnable []interp.ThreadID, step, k int) {
	q := s.Quantum
	if q < 1 {
		q = 1
	}
	if q == 1 {
		if k > 0 {
			s.last = runnable[(rrSuccIdx(runnable, s.last)+k-1)%len(runnable)]
			s.used = 1
		}
		return
	}
	last, used := s.last, s.used
	if last >= 0 && used < q && rrContains(runnable, last) {
		take := q - used
		if take > k {
			take = k
		}
		used += take
		k -= take
	}
	for k > 0 {
		last = rrSucc(runnable, last)
		take := q
		if take > k {
			take = k
		}
		used = take
		k -= take
	}
	s.last, s.used = last, used
}

func rrContains(runnable []interp.ThreadID, id interp.ThreadID) bool {
	for _, r := range runnable {
		if r == id {
			return true
		}
	}
	return false
}

// rrSucc is rrPick's rotation rule: the first id strictly greater than
// last, wrapping to the front.
func rrSucc(runnable []interp.ThreadID, last interp.ThreadID) interp.ThreadID {
	for _, id := range runnable {
		if id > last {
			return id
		}
	}
	return runnable[0]
}

// rrSuccIdx is rrSucc returning the index instead of the id.
func rrSuccIdx(runnable []interp.ThreadID, last interp.ThreadID) int {
	for i, id := range runnable {
		if id > last {
			return i
		}
	}
	return 0
}

// rng is a self-contained xorshift64* PRNG; math/rand would also be
// deterministic, but an explicit state keeps the schedule a pure function
// of the seed across Go versions.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{state: seed}
}

func (r *rng) next() uint64 {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return r.state * 0x2545f4914f6cdd1d
}

func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Random picks a uniformly random runnable thread each step, seeded.
type Random struct{ r *rng }

// NewRandom returns a seeded random scheduler.
func NewRandom(seed uint64) *Random { return &Random{r: newRNG(seed)} }

// Next implements interp.Scheduler.
func (s *Random) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	return runnable[s.r.intn(len(runnable))]
}

// Clone returns an independent scheduler in the same state: it draws
// exactly the numbers s would draw from here on. Paired with an
// interp.Snapshot taken at the same step, it forks a seeded run.
func (s *Random) Clone() *Random {
	r := *s.r
	return &Random{r: &r}
}

// Plan implements interp.PlanningScheduler: the draws are simulated on
// a copy of the generator state, and Advance replays exactly the
// consumed prefix on the real state. intn draws nothing for a
// single-element set, so replaying k picks consumes the same number of
// generator states as k Next calls.
func (s *Random) Plan(runnable []interp.ThreadID, step int, buf []interp.ThreadID) int {
	r := *s.r
	for i := range buf {
		buf[i] = runnable[r.intn(len(runnable))]
	}
	return len(buf)
}

// Advance implements interp.PlanningScheduler.
func (s *Random) Advance(runnable []interp.ThreadID, step, k int) {
	for ; k > 0; k-- {
		s.r.intn(len(runnable))
	}
}

// PCT approximates the PCT algorithm (Burckhardt et al.): threads get
// random priorities; the highest-priority runnable thread runs, and at d-1
// random step indices the running thread's priority is demoted below all
// others. Small d finds most races with high probability.
type PCT struct {
	r          *rng
	prio       map[interp.ThreadID]int
	nextPrio   int
	demoteAt   map[int]bool
	demoteBase int
}

// NewPCT returns a PCT scheduler with depth d over maxSteps steps.
func NewPCT(seed uint64, d, maxSteps int) *PCT {
	p := &PCT{
		r:        newRNG(seed),
		prio:     make(map[interp.ThreadID]int),
		demoteAt: make(map[int]bool),
		nextPrio: 1 << 20,
	}
	for i := 0; i < d-1; i++ {
		if maxSteps > 0 {
			p.demoteAt[p.r.intn(maxSteps)] = true
		}
	}
	return p
}

// Next implements interp.Scheduler.
func (s *PCT) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	best := runnable[0]
	for _, id := range runnable {
		if _, ok := s.prio[id]; !ok {
			// Random initial priority, high band.
			s.prio[id] = (1 << 20) + s.r.intn(1<<20)
		}
		if s.prio[id] > s.prio[best] {
			best = id
		}
	}
	if s.demoteAt[step] {
		s.demoteBase--
		s.prio[best] = s.demoteBase
		// Re-pick after demotion.
		for _, id := range runnable {
			if s.prio[id] > s.prio[best] {
				best = id
			}
		}
	}
	return best
}

// Replay replays a recorded schedule exactly; once the recording is
// exhausted (or the recorded thread is not runnable — which can happen
// when a verifier perturbs the run), it falls back to the supplied
// scheduler (default: round-robin).
type Replay struct {
	Trace    []interp.ThreadID
	Fallback interp.Scheduler
	pos      int
	// Diverged reports whether the replay ever had to fall back.
	Diverged bool
}

// NewReplay returns a replay scheduler over the recorded trace.
func NewReplay(trace []interp.ThreadID) *Replay {
	return &Replay{Trace: trace, Fallback: NewRoundRobin(1)}
}

// Next implements interp.Scheduler.
func (s *Replay) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	if s.pos < len(s.Trace) {
		want := s.Trace[s.pos]
		s.pos++
		for _, id := range runnable {
			if id == want {
				return id
			}
		}
		s.Diverged = true
	}
	if s.Fallback == nil {
		s.Fallback = NewRoundRobin(1)
	}
	return s.Fallback.Next(runnable, step)
}

// Fixed always prefers the lowest-id runnable thread in Order; useful in
// tests to force specific interleavings, and used by the verifiers to
// steer the racing instructions into a requested order.
type Fixed struct {
	// Order is the preference list; threads not listed come after listed
	// ones, lowest id first.
	Order []interp.ThreadID
}

// Next implements interp.Scheduler.
func (s *Fixed) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	for _, want := range s.Order {
		for _, id := range runnable {
			if id == want {
				return id
			}
		}
	}
	return runnable[0]
}
