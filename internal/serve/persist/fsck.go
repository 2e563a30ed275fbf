// Offline validation and repair of a state directory. Fsck applies the
// same trust rule as boot recovery — a program is only as good as its
// checksummed checkpoint — but instead of rehydrating it reports and
// repairs: corrupt checkpoints are quarantined, leftover temp files
// removed, and the WAL of a server that predates the single-file
// format moved aside. Running fsck before a server start is never
// required (boot recovery does all of this implicitly) but gives an
// operator a dry accounting of what a crash cost.
package persist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// leftovers are the un-renamed temp files a program directory may hold
// besides its CHECKPOINT, including the WAL temp file of a server that
// predates the single-file format. Boot ignores them; fsck removes
// them. That server's WAL itself is not deleted: fsck moves it to
// quarantine/<key>.WAL, where an operator rolling back to the older
// server can still find the records it holds.
var leftovers = []string{"CHECKPOINT.tmp", "WAL.tmp"}

// FsckProgram is one program's verdict.
type FsckProgram struct {
	Key string `json:"key"`
	// OK means the checkpoint validated; a quarantined program is not OK.
	OK bool `json:"ok"`
	// Err describes why a program was quarantined.
	Err string `json:"err,omitempty"`
	// Submissions/Pairs/Seen summarize the durable state for reporting.
	Submissions int `json:"submissions"`
	Pairs       int `json:"pairs"`
	Seen        int `json:"seen"`
}

// FsckReport is the full accounting of one fsck pass.
type FsckReport struct {
	Dir         string        `json:"dir"`
	Programs    []FsckProgram `json:"programs"`
	OK          int           `json:"ok"`
	Quarantined int           `json:"quarantined"`
	// Removed counts the leftover temp files deleted.
	Removed int `json:"removed"`
	// WALs counts the leftover WAL files moved to quarantine/.
	WALs int `json:"wals_quarantined"`
}

// Fsck validates and repairs a state directory in place. It returns an
// error only when the directory itself is unusable; per-program damage
// is quarantined and reported, exactly as boot recovery would handle
// it.
func Fsck(dir string) (*FsckReport, error) {
	rep := &FsckReport{Dir: dir}
	progRoot := filepath.Join(dir, "programs")
	entries, err := os.ReadDir(progRoot)
	if os.IsNotExist(err) {
		return rep, nil // nothing persisted yet: trivially clean
	}
	if err != nil {
		return nil, fmt.Errorf("fsck: %w", err)
	}
	s := &Store{dir: dir} // repair helper; no faults, no metrics
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		key := e.Name()
		pdir := filepath.Join(progRoot, key)
		fp := FsckProgram{Key: key}
		for _, name := range leftovers {
			if os.Remove(filepath.Join(pdir, name)) == nil {
				rep.Removed++
			}
		}
		wal := filepath.Join(pdir, "WAL")
		if _, err := os.Lstat(wal); err == nil {
			if dst, err := s.quarantinePath(key + ".WAL"); err == nil && os.Rename(wal, dst) == nil {
				rep.WALs++
			}
		}
		_, ck, err := readCheckpoint(pdir, key)
		if err != nil {
			fp.Err = err.Error()
			if qerr := s.Quarantine(key); qerr != nil {
				os.RemoveAll(pdir)
			}
			rep.Quarantined++
		} else {
			fp.OK = true
			fp.Submissions = ck.Submissions
			fp.Pairs = len(ck.State.Pairs)
			fp.Seen = len(ck.State.Seen)
			rep.OK++
		}
		rep.Programs = append(rep.Programs, fp)
	}
	sort.Slice(rep.Programs, func(i, j int) bool { return rep.Programs[i].Key < rep.Programs[j].Key })
	return rep, nil
}

// Write renders the report for terminal consumption.
func (r *FsckReport) Write(w io.Writer) {
	fmt.Fprintf(w, "fsck %s: %d program(s), %d ok, %d quarantined, %d leftover file(s) removed, %d WAL(s) moved to quarantine\n",
		r.Dir, len(r.Programs), r.OK, r.Quarantined, r.Removed, r.WALs)
	for _, p := range r.Programs {
		if !p.OK {
			fmt.Fprintf(w, "  %s QUARANTINED: %s\n", short(p.Key), p.Err)
			continue
		}
		fmt.Fprintf(w, "  %s ok: %d submission(s), %d pair(s), %d seen report(s)\n",
			short(p.Key), p.Submissions, p.Pairs, p.Seen)
	}
}

func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
