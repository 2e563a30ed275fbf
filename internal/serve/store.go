package serve

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/serve/persist"
	"github.com/conanalysis/owl/internal/serve/replicate"
)

// programState is everything the service accumulates for one program
// content-hash key. The resolved owl.Program is pinned here on first
// submission and reused verbatim by every later one: coverage keys are
// *ir.Instr identities, so the ExploreState is only meaningful against
// the exact module value it was built from (the workload registry
// builds a fresh module per Get call — re-resolving would silently
// orphan the accumulated coverage).
//
// Only one shard goroutine ever *mutates* a given programState (keys
// route to shards by hash), but the programs endpoint scrapes all of
// them concurrently, so the mutable accounting sits behind mu. The
// ExploreState carries its own lock.
type programState struct {
	key  string
	name string
	prog owl.Program

	state *sched.ExploreState

	// source and fp are the persisted identity: the spec fields the key
	// hashes and the module fingerprint rehydration verifies.
	source persist.ProgramSource
	fp     string

	// seq is the program's version: bumped on every recorded state
	// change (a completed job, an accepted peer merge) and stamped into
	// every checkpoint composed from it. pmu guards seq and serializes
	// recording a change (bump + checkpoint write) against checkpoint
	// composition elsewhere, so a checkpoint never snapshots a
	// half-recorded change and an older version never overwrites a
	// newer one on disk.
	seq uint64
	pmu sync.Mutex
	// unsaved is set while the durable store lacks the current version
	// (the last checkpoint write failed). Eviction skips an unsaved
	// program: its newest state lives only in memory.
	unsaved atomic.Bool

	// inflight and lastUsed are eviction bookkeeping, guarded by the
	// store's mutex: inflight counts queued+running jobs (an evicted
	// program must have none), lastUsed is the store's monotonic use
	// tick (LRU order).
	inflight int
	lastUsed int64

	mu sync.Mutex
	// reports dedups raw race reports by ID across submissions; order
	// keeps first-seen order for deterministic listings.
	reports     map[string]bool
	order       []string
	submissions int
}

// absorbRun records a completed run: its raw report IDs (returning the
// IDs that were new to the store, in first-seen order) and the
// submission count.
func (ps *programState) absorbRun(res *owl.Result) (freshIDs []string, known, total, submissions int) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, r := range res.Raw {
		id := r.ID()
		if ps.reports[id] {
			known++
			continue
		}
		ps.reports[id] = true
		ps.order = append(ps.order, id)
		freshIDs = append(freshIDs, id)
	}
	ps.submissions++
	return freshIDs, known, len(ps.reports), ps.submissions
}

// store maps content-hash keys to accumulated program state. With a
// persist store attached it is also the cache layer over the state
// directory: misses rehydrate from disk, and exceeding maxPrograms
// evicts the least-recently-used cold program (whose durable state, if
// any, stays on disk for the next touch).
type store struct {
	mu          sync.Mutex
	programs    map[string]*programState
	pending     map[string]chan struct{} // keys whose create/reopen disk I/O is in flight
	snapEntries int
	maxPrograms int
	tick        int64
	mc          *metrics.Collector
	pstore      *persist.Store        // nil = persistence off
	rep         *replicate.Replicator // nil = replication off
}

// acquireOutcome reports how acquire obtained a program's state.
type acquireOutcome int

const (
	// acqMemory: the key was already live in the program map.
	acqMemory acquireOutcome = iota
	// acqReopened: rehydrated from this replica's own durable state.
	acqReopened
	// acqImported: built from a peer blob (Fetch on a cold miss, or the
	// seed checkpoint of a PUT offer). New to this replica.
	acqImported
	// acqFresh: created cold, no prior state anywhere.
	acqFresh
)

// known reports whether the program already existed locally — the
// Submit-side "existed" notion. Peer-imported programs are NOT known:
// they are new entries this store just learned about, and the caller
// counts them into serve.store_programs like any other first sight.
func (o acquireOutcome) known() bool { return o == acqMemory || o == acqReopened }

func newStore(snapEntries, maxPrograms int, mc *metrics.Collector) *store {
	return &store{
		programs:    make(map[string]*programState),
		pending:     make(map[string]chan struct{}),
		snapEntries: snapEntries,
		maxPrograms: maxPrograms,
		mc:          mc,
	}
}

// acquire returns the state for key with its inflight count already
// raised — the caller owes exactly one release (directly on admission
// failure, or via Server.finish when the job completes). On a miss it
// first tries to rehydrate the program from disk, then creates it
// fresh. A fresh program writes nothing: its first checkpoint is its
// first job's. The boolean reports whether the key already existed in
// memory or on disk.
//
// The miss path does I/O (the checkpoint read on reopen; a peer fetch
// and the imported blob's checkpoint write) and must not hold the
// store mutex across it — one slow disk would serialize every Submit
// on every shard. A per-key pending slot keeps the mutex to map
// mutation only: the first caller for a cold key claims the slot and
// materializes off-lock, later callers for the same key wait on the
// slot and re-check the map; callers for other keys are never blocked.
func (s *store) acquire(key, name string, prog owl.Program, src persist.ProgramSource) (*programState, bool) {
	ps, outcome := s.acquireSeeded(key, name, prog, src, nil, true)
	return ps, outcome.known()
}

// acquireSeeded is acquire with the replication hooks exposed: seed,
// when non-nil, is a peer-offered checkpoint to build a missing program
// from (already identity-verified by the caller), and allowPeer gates
// the cold-miss peer fetch (the PUT offer path must not re-fetch from
// the peer that is pushing to us).
func (s *store) acquireSeeded(key, name string, prog owl.Program, src persist.ProgramSource, seed *persist.Checkpoint, allowPeer bool) (*programState, acquireOutcome) {
	var gate chan struct{}
	for {
		s.mu.Lock()
		if ps, ok := s.programs[key]; ok {
			s.touchLocked(ps)
			s.mu.Unlock()
			return ps, acqMemory
		}
		ch, busy := s.pending[key]
		if !busy {
			gate = make(chan struct{})
			s.pending[key] = gate
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
		<-ch
	}

	ps, outcome := s.materialize(key, name, prog, src, seed, allowPeer)

	s.mu.Lock()
	// Pin before inserting: insertLocked's eviction sweep (and any
	// concurrent one) must never victimize a program whose first job is
	// still queued or running — a resubmission would then rehydrate a
	// second copy from disk that the running job's checkpoint later
	// overwrites. The caller's one owed release balances this pin.
	ps.inflight = 1
	s.insertLocked(ps)
	delete(s.pending, key)
	s.mu.Unlock()
	close(gate)
	return ps, outcome
}

// pin returns the live in-memory state for key with its inflight count
// raised (so eviction cannot victimize it while the caller reads it),
// or nil when the key is not in memory. The caller owes one release.
// This is the state-serving endpoint's handle: it never materializes —
// serving a peer must not fault a cold program into memory.
func (s *store) pin(key string) *programState {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, ok := s.programs[key]
	if !ok {
		return nil
	}
	s.touchLocked(ps)
	return ps
}

// materialize builds the in-memory state for a key that is not in the
// store, in warmth order: rehydrate from this replica's own disk, else
// import the seed checkpoint (offer path) or a peer-fetched blob (cold
// miss with replication on), else create fresh. A blob that fails
// identity or state validation is discarded and the cold path proceeds
// — a bad peer can cost warmth, never a job. Runs outside the store
// mutex; the caller holds key's pending slot, so exactly one goroutine
// materializes a given key at a time.
func (s *store) materialize(key, name string, prog owl.Program, src persist.ProgramSource, seed *persist.Checkpoint, allowPeer bool) (*programState, acquireOutcome) {
	if ps := s.reopen(key, name, prog); ps != nil {
		return ps, acqReopened
	}
	ck, fetched := seed, false
	if ck == nil && allowPeer && s.rep.Enabled() {
		ck = s.rep.Fetch(context.Background(), key)
		fetched = ck != nil
	}
	if ck != nil {
		if ps, err := fromCheckpoint(ck, name, prog, s.snapEntries); err == nil {
			if fetched {
				s.mc.Count("serve.replica_fetch_hits", 1)
			}
			// Warmth bought from a peer should survive a restart too.
			s.save(ps, false)
			return ps, acqImported
		}
		s.mc.Count("serve.replica_discarded", 1)
	}
	ps := &programState{
		key:     key,
		name:    name,
		prog:    prog,
		state:   sched.NewExploreState(s.snapEntries),
		reports: make(map[string]bool),
		source:  src,
		// The fingerprint is always computed (it is cached on the
		// module, one hash per program first-sight): the state endpoint
		// serves blobs whether or not persistence is on, and a blob
		// without a fingerprint could never be trusted by a peer.
		fp: prog.Module.Fingerprint(),
	}
	return ps, acqFresh
}

// reopen lazily rehydrates an evicted program's durable state. Damaged
// or mismatched state is discarded (quarantined + counted) and nil is
// returned so the caller starts fresh.
func (s *store) reopen(key, name string, prog owl.Program) *programState {
	if s.pstore == nil {
		return nil
	}
	ck, err := s.pstore.Load(key)
	if err != nil || ck == nil {
		return nil
	}
	ps, err := fromCheckpoint(ck, name, prog, s.snapEntries)
	if err != nil {
		s.discard(key)
		return nil
	}
	return ps
}

// insert adds a rehydrated program (boot path).
func (s *store) insert(ps *programState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insertLocked(ps)
}

func (s *store) insertLocked(ps *programState) {
	s.tick++
	ps.lastUsed = s.tick
	s.programs[ps.key] = ps
	s.evictLocked()
}

func (s *store) touchLocked(ps *programState) {
	s.tick++
	ps.lastUsed = s.tick
	ps.inflight++
}

// release drops one inflight reference (job finished or admission
// failed).
func (s *store) release(ps *programState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ps.inflight > 0 {
		ps.inflight--
	}
}

// evictLocked enforces maxPrograms by dropping the least-recently-used
// programs with no jobs in flight. With persistence on, an evicted
// program's state survives on disk (every job wrote its checkpoint
// before its terminal status published) and rehydrates on the next
// touch; a program whose last write failed is not evicted until a
// later write succeeds, since its newest state exists only in memory.
// Without persistence, eviction deliberately forgets the accumulated
// state — bounded memory beats unbounded resume.
func (s *store) evictLocked() {
	for s.maxPrograms > 0 && len(s.programs) > s.maxPrograms {
		var victim *programState
		for _, ps := range s.programs {
			if ps.inflight > 0 || ps.unsaved.Load() {
				continue
			}
			if victim == nil || ps.lastUsed < victim.lastUsed {
				victim = ps
			}
		}
		if victim == nil {
			return // everything is hot or unsaved; stay over budget rather than lose live state
		}
		delete(s.programs, victim.key)
		s.mc.Count("serve.programs_evicted", 1)
	}
}

// discard quarantines a program's on-disk state (rehydration refused
// it) and counts the loss. It touches only the persist store, never the
// program map, so it takes no store lock — the rename it performs is
// disk I/O that must not block Submit admission.
func (s *store) discard(key string) {
	if s.pstore != nil {
		s.pstore.Quarantine(key)
	}
	s.mc.Count("serve.persist_discarded", 1)
}

// all snapshots the live program states (drain-time checkpoint sweep).
func (s *store) all() []*programState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*programState, 0, len(s.programs))
	for _, ps := range s.programs {
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// len returns the number of distinct programs currently in memory.
func (s *store) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.programs)
}

// ProgramInfo is the wire summary of one stored program.
type ProgramInfo struct {
	Key         string `json:"key"`
	Name        string `json:"name"`
	Submissions int    `json:"submissions"`
	// Explorations/Pairs/Reports describe the accumulated ExploreState:
	// absorbed coverage explorations, distinct coverage pairs, and
	// deduplicated raw reports.
	Explorations int `json:"explorations"`
	Pairs        int `json:"pairs"`
	Reports      int `json:"reports"`
}

// list snapshots the store for the programs endpoint, sorted by key for
// a deterministic listing. Counts read through the ExploreState's own
// mutex-guarded accessors, so a concurrent job run on another shard
// cannot race the scrape.
func (s *store) list() []ProgramInfo {
	states := s.all()
	out := make([]ProgramInfo, 0, len(states))
	for _, ps := range states {
		ps.mu.Lock()
		subs, nRep := ps.submissions, len(ps.reports)
		ps.mu.Unlock()
		out = append(out, ProgramInfo{
			Key:          ps.key,
			Name:         ps.name,
			Submissions:  subs,
			Explorations: ps.state.Explorations(),
			Pairs:        ps.state.Pairs(),
			Reports:      nRep,
		})
	}
	return out
}
