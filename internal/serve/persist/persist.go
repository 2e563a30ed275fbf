// Package persist is the crash-safe durability layer under the serve
// store. Each program (content-hash key) owns one directory holding one
// file: CHECKPOINT, the program's full accumulated state. The serve
// layer rewrites it after every state change (a completed job, an
// accepted peer merge) with the tmp+fsync+rename+dir-fsync
// atomic-replace idiom, so a kill -9 at any instant leaves either the
// previous checkpoint or the new one — never a mix, never a torn file
// that validates. Recovery reads and validates exactly one file per
// program.
//
// The package stores bytes and recovers structure; it does not know
// what an ExploreState is. Checkpoints carry a sched.StateSnapshot as
// opaque-but-versioned JSON; the serve layer re-binds it against a
// re-resolved module (guarded by the module fingerprint) and discards
// wholesale anything that no longer resolves — persist's job is only
// to guarantee that what comes back is exactly a checkpoint that was
// written, or nothing.
package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/sched"
)

// Version is the blob format version. A checkpoint with a different
// version does not rehydrate (it is quarantined); bump it whenever the
// wire structs or the frame grammar change incompatibly.
const Version = 1

// ProgramSource is the program identity a checkpoint preserves — the
// Spec fields that resolve() hashes into the store key. Recovery
// re-resolves the module from these and refuses the blob when the
// resolved identity (key, module fingerprint) no longer matches.
type ProgramSource struct {
	Workload string  `json:"workload,omitempty"`
	Recipe   string  `json:"recipe,omitempty"`
	Noise    string  `json:"noise,omitempty"`
	Program  string  `json:"program,omitempty"`
	Inputs   []int64 `json:"inputs,omitempty"`
}

// Checkpoint is the full durable state of one program at version Seq:
// identity, accumulated counters, the deduplicated report-ID list in
// first-seen order, and the stable-form ExploreState.
type Checkpoint struct {
	Version     int                 `json:"version"`
	Key         string              `json:"key"`
	Name        string              `json:"name"`
	Source      ProgramSource       `json:"source"`
	ModuleFP    string              `json:"module_fp"`
	Seq         uint64              `json:"seq"`
	Submissions int                 `json:"submissions"`
	Reports     []string            `json:"reports,omitempty"`
	State       sched.StateSnapshot `json:"state"`
}

// Options configures a Store.
type Options struct {
	// Faults, when non-nil, injects deterministic disk faults at the
	// persist.* operation points (see frame.go).
	Faults *faultinject.Plan
	// Metrics receives the serve.persist_* counters (nil-safe).
	Metrics *metrics.Collector
}

// Store is one state directory. It owns the directory layout
// (programs/<key>/CHECKPOINT, quarantine/...) and, when a fault plan is
// set, the fault-injection sequence counters.
type Store struct {
	dir  string
	opts Options

	mu  sync.Mutex
	seq map[string]int // (key|op) -> next fault-injection sequence; only with a plan
}

func (s *Store) count(name string, n int64) { s.opts.Metrics.Count(name, n) }

func (s *Store) programDir(key string) string {
	return filepath.Join(s.dir, "programs", key)
}

// Open opens (creating if needed) a state directory and recovers every
// program in it. Corrupt programs are quarantined and counted, never
// fatal: the error return is only for an unusable directory itself.
// Recovered checkpoints come back sorted by key so boot is
// deterministic.
func Open(dir string, opts Options) (*Store, []Checkpoint, error) {
	s := &Store{dir: dir, opts: opts}
	if err := os.MkdirAll(filepath.Join(dir, "programs"), 0o755); err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "programs"))
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	var recovered []Checkpoint
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if ck, err := s.recoverProgram(e.Name()); err == nil {
			recovered = append(recovered, ck)
			s.countLeftoverWAL(e.Name())
		}
	}
	sort.Slice(recovered, func(i, j int) bool { return recovered[i].Key < recovered[j].Key })
	return s, recovered, nil
}

// walHeaderLen is the size of an empty WAL: its magic, no records.
const walHeaderLen = 8

// countLeftoverWAL counts, in serve.persist_wal_ignored, a program
// whose directory still holds the write-ahead log of a server that
// predates the single-file format with records in it. Those records
// are not replayed — jobs that server reported done after its last
// checkpoint — so boot makes the loss visible instead of silent.
func (s *Store) countLeftoverWAL(key string) {
	if fi, err := os.Stat(filepath.Join(s.programDir(key), "WAL")); err == nil && fi.Size() > walHeaderLen {
		s.count("serve.persist_wal_ignored", 1)
	}
}

// Load recovers a single program directory — the lazy-rehydrate path
// after an eviction. It returns (nil, nil) when key has no durable
// state; a damaged checkpoint is quarantined (exactly as Open would)
// and returned as an error.
func (s *Store) Load(key string) (*Checkpoint, error) {
	if _, err := os.Stat(s.programDir(key)); err != nil {
		return nil, nil
	}
	ck, err := s.recoverProgram(key)
	if err != nil {
		return nil, err
	}
	return &ck, nil
}

// recoverProgram reads and validates one program's checkpoint. A
// checkpoint that cannot be trusted quarantines the directory. A WAL
// left by a server that predates the single-file format is ignored:
// its deltas are not replayed (fsck moves it to quarantine/).
func (s *Store) recoverProgram(key string) (Checkpoint, error) {
	dir := s.programDir(key)
	// A leftover temp file is an un-renamed partial write: harmless.
	os.Remove(filepath.Join(dir, "CHECKPOINT.tmp"))
	_, ck, err := readCheckpoint(dir, key)
	if err != nil {
		s.count("serve.persist_quarantined", 1)
		if qerr := s.Quarantine(key); qerr != nil {
			// The blob is bad and cannot be moved aside; removing it
			// is the only way to keep the next boot from tripping on
			// it again.
			os.RemoveAll(dir)
		}
		return ck, err
	}
	s.count("serve.persist_recovered", 1)
	return ck, nil
}

// readCheckpoint reads a program directory's CHECKPOINT file verbatim
// and validates it: a well-formed blob whose embedded key matches the
// directory.
func readCheckpoint(dir, key string) ([]byte, Checkpoint, error) {
	path := filepath.Join(dir, "CHECKPOINT")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Checkpoint{}, err
	}
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, Checkpoint{}, fmt.Errorf("%s: %w", path, err)
	}
	if ck.Key != key {
		return nil, Checkpoint{}, fmt.Errorf("persist: %s: checkpoint key %s under directory %s", path, ck.Key, key)
	}
	return data, ck, nil
}

// EncodeCheckpoint renders ck as a standalone checkpoint blob — the
// exact bytes a CHECKPOINT file holds (magic + one CRC-framed JSON
// payload). This is also the replica state-exchange wire format
// (internal/serve/replicate): what one replica serves is what another
// could have read off disk, so both sides share one validator.
func EncodeCheckpoint(ck Checkpoint) ([]byte, error) {
	buf, err := encodeBlob(ck)
	if err != nil {
		return nil, err
	}
	defer putEncBuf(buf)
	return append([]byte(nil), buf.Bytes()...), nil
}

// DecodeCheckpoint validates and decodes a checkpoint blob produced by
// EncodeCheckpoint (or read verbatim from a CHECKPOINT file): magic,
// exactly one well-checksummed frame, matching format version. Key
// identity is the caller's to verify — it knows which key it asked for.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	var ck Checkpoint
	if len(data) < magicLen || string(data[:magicLen]) != ckptMagic {
		return ck, fmt.Errorf("persist: checkpoint blob: bad magic")
	}
	payload, ok := readFrame(data[magicLen:])
	if !ok {
		return ck, fmt.Errorf("persist: checkpoint blob: corrupt frame")
	}
	if err := json.Unmarshal(payload, &ck); err != nil {
		return ck, fmt.Errorf("persist: checkpoint blob: %w", err)
	}
	if ck.Version != Version {
		return ck, fmt.Errorf("persist: checkpoint blob: version %d, want %d", ck.Version, Version)
	}
	return ck, nil
}

// CheckpointBlob reads a program's durable CHECKPOINT file verbatim and
// validates it — the bytes a replica serves for a program it has
// evicted from memory.
func (s *Store) CheckpointBlob(key string) ([]byte, Checkpoint, error) {
	return readCheckpoint(s.programDir(key), key)
}

// Write makes blob — an encoded checkpoint (EncodeCheckpoint) — key's
// durable state: it creates the program directory on first use and
// atomically replaces its CHECKPOINT. On failure the previous
// checkpoint (if any) stays in place, and a directory this call
// created is removed again, so a failed first write leaves no
// half-created program behind.
func (s *Store) Write(key string, blob []byte) error {
	dir := s.programDir(key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := s.writeFileAtomic(key, filepath.Join(dir, "CHECKPOINT"), blob); err != nil {
		os.Remove(dir) // only succeeds when no earlier checkpoint lives there
		return err
	}
	s.count("serve.persist_checkpoints", 1)
	return nil
}

// Quarantine moves a program directory aside under quarantine/ so boot
// never trips on it again but a human (or fsck) can inspect it.
func (s *Store) Quarantine(key string) error {
	dst, err := s.quarantinePath(key)
	if err != nil {
		return err
	}
	return os.Rename(s.programDir(key), dst)
}

// quarantinePath returns a free path for name under quarantine/,
// creating the directory if needed; a taken name gets a .N suffix.
func (s *Store) quarantinePath(name string) (string, error) {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(qdir, name)
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			return dst, nil
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", name, i))
	}
}
