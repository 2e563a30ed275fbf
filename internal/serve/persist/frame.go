// Frame encoding and fault-aware disk I/O for the persistence layer.
//
// A checkpoint blob is an 8-byte magic string followed by exactly one
// frame: a little-endian u32 payload length, a u32 CRC-32C of the
// payload, and the payload bytes. The CRC plus the length prefix make
// every class of damage detectable: a torn write truncates mid-frame
// (length overruns the file), a bit flip fails the checksum, and
// garbage fails one or the other.
//
// All writes and fsyncs funnel through the Store's fault-aware helpers,
// which consult an optional faultinject.Plan keyed by operation name
// and per-(program, operation) sequence number, so crash-consistency
// tests can deterministically tear, flip, and short-write exactly the
// byte ranges they mean to.
package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"github.com/conanalysis/owl/internal/faultinject"
)

const (
	ckptMagic = "OWLCKPT1"
	magicLen  = 8
	// frameMax bounds a frame payload (a state blob for one program);
	// a length word above it is corruption, not a real frame.
	frameMax = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encBufs pools the scratch buffers EncodeCheckpoint encodes into. A
// checkpoint is encoded once per completed job on a long-lived server;
// the pool keeps that to one exact-size copy per blob instead of a
// buffer regrown from empty every time.
var encBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getEncBuf() *bytes.Buffer {
	buf := encBufs.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putEncBuf(buf *bytes.Buffer) {
	// Oversized one-off blobs (a giant checkpoint) would pin their
	// capacity in the pool forever; let those go.
	if buf.Cap() <= 4<<20 {
		encBufs.Put(buf)
	}
}

// encodeBlob JSON-encodes ck (stamped with the current Version)
// directly into a pooled buffer laid out as one complete blob
// (magic|len|crc|payload) with no intermediate copies. The caller must
// hand the buffer back via putEncBuf once it has copied the bytes out.
func encodeBlob(ck Checkpoint) (*bytes.Buffer, error) {
	ck.Version = Version
	buf := getEncBuf()
	buf.WriteString(ckptMagic)
	buf.Write(make([]byte, 8)) // frame header, filled in below
	enc := json.NewEncoder(buf)
	if err := enc.Encode(ck); err != nil {
		putEncBuf(buf)
		return nil, err
	}
	buf.Truncate(buf.Len() - 1) // drop Encoder's trailing newline
	frame := buf.Bytes()[magicLen:]
	payload := frame[8:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return buf, nil
}

// readFrame decodes body as exactly one complete, checksummed frame.
// ok is false for any damage: a short header, a length that overruns
// or underruns body, or a checksum mismatch.
func readFrame(body []byte) (payload []byte, ok bool) {
	if len(body) < 8 {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(body[0:4])
	if n > frameMax || 8+int(n) != len(body) {
		return nil, false
	}
	payload = body[8:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(body[4:8]) {
		return nil, false
	}
	return payload, true
}

// diskFault consults the fault plan for the next run of (key, op). The
// per-(key, op) sequence is counted only when a plan is set: a
// fault-free server must not grow a counter map entry per program it
// ever wrote, nor serialize its writes on the store-wide mutex.
func (s *Store) diskFault(key, op string) *faultinject.DiskFault {
	if s.opts.Faults == nil {
		return nil
	}
	s.mu.Lock()
	if s.seq == nil {
		s.seq = make(map[string]int)
	}
	k := key + "|" + op
	n := s.seq[k]
	s.seq[k] = n + 1
	s.mu.Unlock()
	return s.opts.Faults.Disk(op, n)
}

// write writes b to f through the fault plan. A short-write fault
// writes half the buffer and reports the error; a torn-write fault
// writes half and reports success (the page-cache tail a crash loses);
// a bit-flip fault corrupts one bit and writes it all (the damage only
// a checksum catches).
func (s *Store) write(f *os.File, key, op string, b []byte) error {
	switch fault := s.diskFault(key, op); {
	case fault == nil:
		_, err := f.Write(b)
		return err
	case fault.Kind == faultinject.KindShortWrite:
		f.Write(b[:len(b)/2])
		return fault
	case fault.Kind == faultinject.KindTornWrite:
		_, err := f.Write(b[:len(b)/2])
		return err
	case fault.Kind == faultinject.KindBitFlip:
		flipped := make([]byte, len(b))
		copy(flipped, b)
		if len(flipped) > 0 {
			bit := fault.Bit % (len(flipped) * 8)
			if bit < 0 {
				bit += len(flipped) * 8
			}
			flipped[bit/8] ^= 1 << (bit % 8)
		}
		_, err := f.Write(flipped)
		return err
	default: // an fsync-error rule mistargeted at a write point: inert
		_, err := f.Write(b)
		return err
	}
}

// fsync flushes f through the fault plan.
func (s *Store) fsync(f *os.File, key, op string) error {
	if fault := s.diskFault(key, op); fault != nil && fault.Kind == faultinject.KindFsyncError {
		return fault
	}
	return f.Sync()
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable.
func (s *Store) syncDir(key, dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return s.fsync(d, key, "persist.dir.fsync")
}

// writeFileAtomic writes data to path via a same-directory temp file,
// fsync, rename, dir fsync — the atomic-replace idiom. Its fault points
// are persist.checkpoint.write, persist.checkpoint.fsync and
// persist.dir.fsync.
func (s *Store) writeFileAtomic(key, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := s.write(f, key, "persist.checkpoint.write", data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := s.fsync(f, key, "persist.checkpoint.fsync"); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return s.syncDir(key, filepath.Dir(path))
}
