// Cross-exploration persistence. One Engine drives one exploration and
// then dies with everything it learned: the interleaving-coverage map,
// the set of report IDs it has already credited, and (via the snapshot
// cache) the machine states of every shared schedule prefix. A
// long-running service that analyzes the same program over and over
// should not pay for rediscovering all of that on every submission.
//
// ExploreState is that knowledge, lifted out of the Engine: a
// concurrency-safe bundle of coverage + seen-report IDs + snapshot cache
// that outlives any single exploration. An Engine constructed with
// EngineConfig.Resume starts pre-seeded from the state — so a re-run of
// an already-explored program produces no new coverage and no new
// reports, trips the saturation early stop, and spends a fraction of its
// budget — and Absorb folds what the exploration did learn back in.
//
// Coverage keys are instruction identities (*ir.Instr), so an
// ExploreState is only meaningful across explorations of the same frozen
// module value. The serve layer guarantees this by keying states by
// program content hash and pinning the parsed module alongside the
// state; anything else would silently fragment the coverage map.
package sched

import "sync"

// ExploreState accumulates exploration knowledge across runs of one
// program. All methods are safe for concurrent use; the zero value is
// not usable — construct with NewExploreState.
type ExploreState struct {
	mu           sync.Mutex
	cov          *Coverage
	seen         map[string]bool
	snap         *SnapCache
	explorations int
}

// NewExploreState returns an empty state. snapEntries > 0 additionally
// attaches a persistent prefix-sharing snapshot cache of that many
// entries, shared by every exploration resumed from the state (the
// cross-run analogue of owl's per-stage -snap-cache); snapEntries <= 0
// leaves snapshotting to the per-exploration configuration.
func NewExploreState(snapEntries int) *ExploreState {
	s := &ExploreState{
		cov:  NewCoverage(),
		seen: make(map[string]bool),
	}
	if snapEntries > 0 {
		s.snap = NewSnapCache(snapEntries)
	}
	return s
}

// SnapCache returns the persistent snapshot cache (nil when the state
// was built without one).
func (s *ExploreState) SnapCache() *SnapCache {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// Warm reports whether at least one exploration has been absorbed — the
// signal a service counts as a resume hit.
func (s *ExploreState) Warm() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.explorations > 0
}

// Explorations returns the number of absorbed explorations.
func (s *ExploreState) Explorations() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.explorations
}

// Pairs returns the accumulated coverage-map size.
func (s *ExploreState) Pairs() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cov.Pairs()
}

// SeenReports returns the number of distinct report IDs absorbed.
func (s *ExploreState) SeenReports() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

// seed copies the state into a fresh engine's coverage map and seen set
// (called by NewEngine under the state lock; the engine is not yet
// shared, so its side needs no locking).
func (s *ExploreState) seed(e *Engine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.cov.MergeCoverage(s.cov)
	for id := range s.seen {
		e.seen[id] = true
	}
}

// Absorb folds a finished exploration's coverage and report IDs back
// into the state and bumps the exploration count. The engine must be
// quiescent (ExploreCtx returned); absorbing the same engine twice is
// harmless (set semantics) but counts two explorations.
func (s *ExploreState) Absorb(e *Engine) {
	if s == nil || e == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cov.MergeCoverage(e.cov)
	for id := range e.seen {
		s.seen[id] = true
	}
	s.explorations++
}
