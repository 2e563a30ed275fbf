// Durability glue between the serve store and internal/serve/persist.
// The persist package stores checksummed bytes; this file decides what
// those bytes mean: how a programState folds down into a checkpoint,
// when a state change writes one, and how a checkpoint is re-bound
// against a freshly resolved module at boot, on lazy rehydrate, and on
// peer import.
//
// The cardinal rule is refuse-to-guess: a persisted state rehydrates
// only if the re-resolved program has the same content key AND the same
// module fingerprint, and every stable coverage position resolves. Any
// mismatch discards that program's durable state (quarantined, counted
// in serve.persist_discarded) and the server keeps serving it from
// scratch — a lost resume is a performance bug, silently-wrong coverage
// would be a correctness bug.
package serve

import (
	"fmt"

	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/serve/persist"
)

// sourceOf extracts the program-identity fields of a spec — exactly the
// ones resolve() hashes into the store key, nothing else (options are
// not identity).
func sourceOf(spec Spec) persist.ProgramSource {
	return persist.ProgramSource{
		Workload: spec.Workload,
		Recipe:   spec.Recipe,
		Noise:    spec.Noise,
		Program:  spec.Program,
		Inputs:   spec.Inputs,
	}
}

// specFromSource is the boot-time inverse: a checkpoint's preserved
// identity as a resolvable spec.
func specFromSource(src persist.ProgramSource) Spec {
	return Spec{
		Workload: src.Workload,
		Recipe:   src.Recipe,
		Noise:    src.Noise,
		Program:  src.Program,
		Inputs:   src.Inputs,
	}
}

// fromCheckpoint builds a live programState bound to prog's module from
// a checkpoint — the one constructor behind boot recovery, lazy
// rehydrate after eviction, and peer import. The caller has already
// verified the content key; this verifies the module fingerprint and
// loads the state under the refuse-to-guess contract.
func fromCheckpoint(ck *persist.Checkpoint, name string, prog owl.Program, snapEntries int) (*programState, error) {
	fp := prog.Module.Fingerprint()
	if ck.ModuleFP != fp {
		return nil, fmt.Errorf("module fingerprint %.12s does not match checkpoint %.12s", fp, ck.ModuleFP)
	}
	state := sched.NewExploreState(snapEntries)
	if err := state.Import(prog.Module, ck.State); err != nil {
		return nil, err
	}
	ps := &programState{
		key:         ck.Key,
		name:        name,
		prog:        prog,
		state:       state,
		reports:     make(map[string]bool, len(ck.Reports)),
		submissions: ck.Submissions,
		source:      ck.Source,
		fp:          fp,
		seq:         ck.Seq,
	}
	for _, id := range ck.Reports {
		if !ps.reports[id] {
			ps.reports[id] = true
			ps.order = append(ps.order, id)
		}
	}
	return ps, nil
}

// rehydrateAll loads every checkpoint Open recovered into the store —
// the boot half of crash recovery. Per-program failures discard that
// program (quarantine + serve.persist_discarded) and never fail boot.
func (s *Server) rehydrateAll(recovered []persist.Checkpoint) {
	for i := range recovered {
		ck := &recovered[i]
		prog, name, rkey, err := resolve(specFromSource(ck.Source))
		if err == nil && rkey != ck.Key {
			err = fmt.Errorf("persisted source re-resolves to key %.12s, not %.12s", rkey, ck.Key)
		}
		var ps *programState
		if err == nil {
			ps, err = fromCheckpoint(ck, name, prog, s.cfg.SnapEntries)
		}
		if err != nil {
			s.store.discard(ck.Key)
			continue
		}
		s.store.insert(ps)
		s.mc.Count("serve.store_programs", 1)
	}
}

// composeCheckpoint snapshots a program's full state at its current
// version. The caller holds ps.pmu (or ps is not yet shared), so no
// state change is between its absorb and its version bump and the
// snapshot is one consistent version.
func composeCheckpoint(ps *programState) persist.Checkpoint {
	ps.mu.Lock()
	reports := append([]string(nil), ps.order...)
	subs := ps.submissions
	ps.mu.Unlock()
	return persist.Checkpoint{
		Key:         ps.key,
		Name:        ps.name,
		Source:      ps.source,
		ModuleFP:    ps.fp,
		Seq:         ps.seq,
		Submissions: subs,
		Reports:     reports,
		State:       ps.state.Export(),
	}
}

// save encodes ps's current version once and hands the same bytes to
// the durable store, when persistence is on, and to the replicator,
// when offer is set and replication is on. A failed write is counted
// in serve.persist_errors and otherwise ignored: the previous
// checkpoint stays in place, the next state change writes the full
// state again, and until one does ps is marked unsaved so eviction
// keeps it in memory. The caller holds ps.pmu, or ps is not yet shared.
func (s *store) save(ps *programState, offer bool) {
	offer = offer && s.rep != nil
	if s.pstore == nil && !offer {
		return
	}
	blob, err := persist.EncodeCheckpoint(composeCheckpoint(ps))
	if s.pstore != nil {
		if err == nil {
			err = s.pstore.Write(ps.key, blob)
		}
		ps.unsaved.Store(err != nil)
		if err != nil {
			s.mc.Count("serve.persist_errors", 1)
		}
	}
	if offer && blob != nil {
		s.rep.Offer(ps.key, blob)
	}
}

// persistJob records one finished job: it bumps the program's version
// and saves it — the full checkpoint when the store is durable, and
// the same bytes offered to the fleet for anti-entropy (Offer is async
// and latest-wins, so a busy program collapses to one queued blob).
func (s *Server) persistJob(ps *programState) {
	ps.pmu.Lock()
	defer ps.pmu.Unlock()
	ps.seq++
	s.store.save(ps, true)
}

// persistAll saves every live program at drain: it rewrites each
// checkpoint, which also retries any program whose last write failed,
// and offers every warm program to the fleet one final time.
func (s *Server) persistAll() {
	for _, ps := range s.store.all() {
		ps.pmu.Lock()
		s.store.save(ps, ps.state.Warm())
		ps.pmu.Unlock()
	}
}

// Fsck validates and repairs a state directory offline; it is the
// library behind cmd/owl-serve -fsck.
func Fsck(stateDir string) (*persist.FsckReport, error) {
	return persist.Fsck(stateDir)
}
