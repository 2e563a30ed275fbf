package interp

import (
	"fmt"
	"slices"
)

// CheckRunQueue compares the machine's runnable queue with a
// from-scratch filter of its threads at the current step, and checks the
// sleeper heap's contents, order, and index bookkeeping. It drains
// expired sleepers first, exactly as the next step would. A non-nil
// error describes the first mismatch.
func CheckRunQueue(m *Machine) error {
	got := m.runnable()
	var want, asleep []ThreadID
	for _, t := range m.threads {
		if t.Runnable(m.step) {
			want = append(want, t.ID)
		}
		if t.Status == StatusSleeping && !t.Suspended && t.SleepUntil > m.step {
			asleep = append(asleep, t.ID)
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("step %d: queue %v, scan %v", m.step, got, want)
	}
	var heap []ThreadID
	for i, t := range m.sleepers {
		if t.hidx != i || t.q != qSleep {
			return fmt.Errorf("step %d: sleeper %d at heap index %d has hidx %d q %d", m.step, t.ID, i, t.hidx, t.q)
		}
		if i > 0 && m.sleepLess(i, (i-1)/2) {
			return fmt.Errorf("step %d: heap order broken at index %d", m.step, i)
		}
		heap = append(heap, t.ID)
	}
	slices.Sort(heap)
	if !slices.Equal(heap, asleep) {
		return fmt.Errorf("step %d: sleeper heap %v, scan %v", m.step, heap, asleep)
	}
	for _, id := range got {
		if m.threads[id].q != qReady {
			return fmt.Errorf("step %d: queued thread %d has q %d", m.step, id, m.threads[id].q)
		}
	}
	return nil
}

// GenSnapProgram and MachineState expose the snapshot-test program
// generator and state renderer to the external test package, whose
// tests schedule with package sched (which imports interp).
var (
	GenSnapProgram = genSnapProgram
	MachineState   = machineState
)
