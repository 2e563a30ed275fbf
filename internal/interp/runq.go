package interp

// This file is the machine's runnable queue: the one place both engines
// read the scheduler's candidate set from. Invariant, at the top of
// every step (after runnable drains expired sleepers):
//
//	runq     == ascending ids of threads t with t.Runnable(m.step)
//	sleepers == the non-suspended StatusSleeping threads still asleep
//	            (SleepUntil > m.step), a min-heap on (SleepUntil, ID)
//
// Every site that changes a thread's Status, Suspended, or SleepUntil
// calls touch, which re-files that one thread; nothing rescans the
// thread table per step. Restore rebuilds both structures from the
// restored threads. The one status change that needs no touch is a
// woken sleeper being picked (StatusSleeping -> StatusRunnable): both
// statuses are runnable at that step, so its membership is unchanged.

// Queue membership of a thread (Thread.q).
const (
	qNone  uint8 = iota // not schedulable: blocked, suspended, done, or faulted
	qReady              // in Machine.runq
	qSleep              // in Machine.sleepers, at index Thread.hidx
)

// queueCap presizes the queue and the heap so that machines with up to
// this many threads never grow them mid-run.
const queueCap = 64

// touch re-files t after a change to its Status, Suspended, or
// SleepUntil, and marks the set dirty for the compiled engine's planned
// window (which must end at any transition).
func (m *Machine) touch(t *Thread) {
	m.schedDirty = true
	want := qNone
	if !t.Suspended {
		switch t.Status {
		case StatusRunnable:
			want = qReady
		case StatusSleeping:
			want = qSleep
			if t.SleepUntil <= m.step {
				want = qReady
			}
		}
	}
	if want == t.q {
		return
	}
	switch t.q {
	case qReady:
		m.readyRemove(t.ID)
	case qSleep:
		m.sleepRemove(t.hidx)
	}
	t.q = want
	switch want {
	case qReady:
		m.readyInsert(t.ID)
	case qSleep:
		m.sleepPush(t)
	}
}

// runnable moves the sleepers whose wake-up step has come into the
// queue and returns the ids the scheduler may pick now, ascending. The
// slice is the queue itself: callers must neither modify nor retain it
// across a step.
func (m *Machine) runnable() []ThreadID {
	if len(m.sleepers) > 0 && m.sleepers[0].SleepUntil <= m.step {
		m.wake()
	}
	return m.runq
}

// wake moves every sleeper due at the current step into the queue.
func (m *Machine) wake() {
	for len(m.sleepers) > 0 && m.sleepers[0].SleepUntil <= m.step {
		t := m.sleepers[0]
		m.sleepRemove(0)
		t.q = qReady
		m.readyInsert(t.ID)
	}
}

// ready is runnable, except that when every live thread is merely
// sleeping (io_delay) it first advances the clock to the earliest
// wake-up instead of reporting a stall. An empty result means no
// thread can run within the step bound.
func (m *Machine) ready() []ThreadID {
	if r := m.runnable(); len(r) > 0 || len(m.sleepers) == 0 {
		return r
	}
	if wake := m.sleepers[0].SleepUntil; wake <= m.cfg.MaxSteps {
		m.step = wake
		m.wake()
	}
	return m.runq
}

// rebuildQueue files every thread from scratch (Restore).
func (m *Machine) rebuildQueue() {
	m.runq = make([]ThreadID, 0, queueCap)
	m.sleepers = make([]*Thread, 0, queueCap)
	for _, t := range m.threads {
		t.q = qNone
		m.touch(t)
	}
}

// readyInsert adds id to the ascending queue.
func (m *Machine) readyInsert(id ThreadID) {
	i := len(m.runq)
	m.runq = append(m.runq, id)
	for ; i > 0 && m.runq[i-1] > id; i-- {
		m.runq[i] = m.runq[i-1]
	}
	m.runq[i] = id
}

// readyRemove drops id from the queue.
func (m *Machine) readyRemove(id ThreadID) {
	for i, q := range m.runq {
		if q == id {
			m.runq = append(m.runq[:i], m.runq[i+1:]...)
			return
		}
	}
}

// sleepLess orders the sleeper heap by (SleepUntil, ID).
func (m *Machine) sleepLess(i, j int) bool {
	a, b := m.sleepers[i], m.sleepers[j]
	return a.SleepUntil < b.SleepUntil || a.SleepUntil == b.SleepUntil && a.ID < b.ID
}

func (m *Machine) sleepSwap(i, j int) {
	h := m.sleepers
	h[i], h[j] = h[j], h[i]
	h[i].hidx, h[j].hidx = i, j
}

func (m *Machine) sleepUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !m.sleepLess(i, p) {
			return
		}
		m.sleepSwap(i, p)
		i = p
	}
}

func (m *Machine) sleepDown(i int) {
	n := len(m.sleepers)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && m.sleepLess(c+1, c) {
			c++
		}
		if !m.sleepLess(c, i) {
			return
		}
		m.sleepSwap(i, c)
		i = c
	}
}

func (m *Machine) sleepPush(t *Thread) {
	t.hidx = len(m.sleepers)
	m.sleepers = append(m.sleepers, t)
	m.sleepUp(t.hidx)
}

// sleepRemove deletes the heap entry at index i.
func (m *Machine) sleepRemove(i int) {
	last := len(m.sleepers) - 1
	if i != last {
		m.sleepSwap(i, last)
	}
	m.sleepers[last] = nil
	m.sleepers = m.sleepers[:last]
	if i != last {
		m.sleepDown(i)
		m.sleepUp(i)
	}
}
