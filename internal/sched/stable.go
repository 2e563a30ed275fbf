// Stable serialization of ExploreState. The in-memory state keys
// coverage by *ir.Instr identity, which is meaningless across process
// boundaries; Export re-keys every pair by ir.InstrPos (function name +
// flat instruction index — deterministic products of Module.Freeze) and
// Import re-binds them against a re-resolved module, refusing to guess
// when a position no longer resolves. The serve persistence layer
// (internal/serve/persist) stores Export's snapshot in checkpoints.
package sched

import (
	"fmt"
	"sort"

	"github.com/conanalysis/owl/internal/ir"
)

// StablePair is one interleaving-coverage pair re-keyed by stable
// instruction positions. An absent end (never produced by the current
// recorder, but tolerated for forward compatibility) is encoded as an
// empty function name with index -1.
type StablePair struct {
	FromFn string `json:"ff,omitempty"`
	FromIx int    `json:"fi"`
	ToFn   string `json:"tf,omitempty"`
	ToIx   int    `json:"ti"`
}

func stablePairOf(k covKey) StablePair {
	p := StablePair{FromIx: -1, ToIx: -1}
	if pos, ok := ir.PosOf(k.from); ok {
		p.FromFn, p.FromIx = pos.Func, pos.Index
	}
	if pos, ok := ir.PosOf(k.to); ok {
		p.ToFn, p.ToIx = pos.Func, pos.Index
	}
	return p
}

// resolve re-binds the pair against m. ok is false when either end
// names a position the module does not have — persisted state from a
// different program, which the caller must discard wholesale.
func (p StablePair) resolve(m *ir.Module) (covKey, bool) {
	var k covKey
	if p.FromFn != "" || p.FromIx >= 0 {
		if k.from = m.InstrAtPos(ir.InstrPos{Func: p.FromFn, Index: p.FromIx}); k.from == nil {
			return covKey{}, false
		}
	}
	if p.ToFn != "" || p.ToIx >= 0 {
		if k.to = m.InstrAtPos(ir.InstrPos{Func: p.ToFn, Index: p.ToIx}); k.to == nil {
			return covKey{}, false
		}
	}
	return k, true
}

func sortPairs(ps []StablePair) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.FromFn != b.FromFn {
			return a.FromFn < b.FromFn
		}
		if a.FromIx != b.FromIx {
			return a.FromIx < b.FromIx
		}
		if a.ToFn != b.ToFn {
			return a.ToFn < b.ToFn
		}
		return a.ToIx < b.ToIx
	})
}

// StateSnapshot is the full serializable form of an ExploreState:
// coverage pairs and seen-report IDs in sorted order (so identical
// states marshal to identical bytes) plus the absorbed-exploration
// count. The snapshot cache is deliberately absent — machine snapshots
// are in-memory page images and are rebuilt from scratch after a
// restart.
type StateSnapshot struct {
	Pairs        []StablePair `json:"pairs,omitempty"`
	Seen         []string     `json:"seen,omitempty"`
	Explorations int          `json:"explorations"`
}

// Export snapshots the state in stable form. Safe to call concurrently
// with Absorb; the snapshot is a consistent point-in-time view.
func (s *ExploreState) Export() StateSnapshot {
	if s == nil {
		return StateSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := StateSnapshot{Explorations: s.explorations}
	for k := range s.cov.pairs {
		snap.Pairs = append(snap.Pairs, stablePairOf(k))
	}
	sortPairs(snap.Pairs)
	snap.Seen = make([]string, 0, len(s.seen))
	for id := range s.seen {
		snap.Seen = append(snap.Seen, id)
	}
	sort.Strings(snap.Seen)
	return snap
}

// Import re-binds a snapshot against the given frozen module and loads
// it into the state. It refuses to guess: any pair that does not
// resolve fails the whole import (the state was taken from a different
// program — callers discard it and count the loss rather than serve
// silently-wrong coverage). Import is only valid on a cold state; a
// warm one already carries live pairs the load would silently merge
// with.
func (s *ExploreState) Import(m *ir.Module, snap StateSnapshot) error {
	if s == nil {
		return fmt.Errorf("sched: import into nil ExploreState")
	}
	if m == nil || !m.Frozen() {
		return fmt.Errorf("sched: import needs a frozen module")
	}
	resolved := make([]covKey, len(snap.Pairs))
	for i, p := range snap.Pairs {
		k, ok := p.resolve(m)
		if !ok {
			return fmt.Errorf("sched: import: pair %d (@%s#%d -> @%s#%d) does not resolve in module %s",
				i, p.FromFn, p.FromIx, p.ToFn, p.ToIx, m.Name)
		}
		resolved[i] = k
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.explorations > 0 || len(s.cov.pairs) > 0 || len(s.seen) > 0 {
		return fmt.Errorf("sched: import into warm ExploreState")
	}
	for _, k := range resolved {
		s.cov.pairs[k] = struct{}{}
	}
	for _, id := range snap.Seen {
		s.seen[id] = true
	}
	s.explorations = snap.Explorations
	return nil
}

// Merge folds a full snapshot from another replica into the state —
// the warm-state counterpart of Import. Pairs and seen IDs union in
// (set semantics), Explorations takes the max (both sides count real
// absorbed explorations; max keeps the counter monotonic without
// double-counting shared history). The same refuse-to-guess contract
// as Import applies: any unresolvable pair fails the whole merge with
// the state untouched.
//
// The returned bool reports whether anything new landed; false means
// the snapshot was stale (already a subset of this state).
func (s *ExploreState) Merge(m *ir.Module, snap StateSnapshot) (bool, error) {
	if s == nil {
		return false, fmt.Errorf("sched: merge into nil ExploreState")
	}
	if m == nil || !m.Frozen() {
		return false, fmt.Errorf("sched: merge needs a frozen module")
	}
	resolved := make([]covKey, len(snap.Pairs))
	for i, p := range snap.Pairs {
		k, ok := p.resolve(m)
		if !ok {
			return false, fmt.Errorf("sched: merge: pair %d (@%s#%d -> @%s#%d) does not resolve in module %s",
				i, p.FromFn, p.FromIx, p.ToFn, p.ToIx, m.Name)
		}
		resolved[i] = k
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := false
	for _, k := range resolved {
		if _, ok := s.cov.pairs[k]; !ok {
			s.cov.pairs[k] = struct{}{}
			changed = true
		}
	}
	for _, id := range snap.Seen {
		if !s.seen[id] {
			s.seen[id] = true
			changed = true
		}
	}
	if snap.Explorations > s.explorations {
		s.explorations = snap.Explorations
		changed = true
	}
	return changed, nil
}
