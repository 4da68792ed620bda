// Package checkpoint persists aggregator snapshots durably on disk so a
// crashed aggregation server can restart without losing its round.
//
// A Manager owns one directory of checkpoint files. Save writes the blob to
// a temporary file in the same directory, fsyncs it, atomically renames it
// into place and fsyncs the directory, so a crash at any instant leaves
// either the previous set of complete checkpoints or the previous set plus
// one complete new checkpoint — never a half-written file under a live
// name. LoadNewest walks the directory newest-first and returns the first
// checkpoint that passes integrity verification, falling back past torn or
// truncated files (a crash mid-rename, a disk that lied about a sync), so
// one bad tail never makes the whole history unreadable.
//
// File format "LCKF" version 1 (big endian), one checkpoint per file:
//
//	magic "LCKF" | version u8 | seq u64 | unix-nanos u64 | fingerprint u64 |
//	payload len u64 | payload | FNV-1a-64 over all preceding bytes
//
// The trailing checksum is what detects torn writes: truncation chops it
// off, corruption fails it. The fingerprint field carries the aggregator's
// parameter fingerprint (proto.Mergeable's Fingerprint); a Manager opened
// with an expected fingerprint rejects a mismatching checkpoint as
// ErrFingerprintMismatch — a distinct, non-recoverable failure (the
// operator restarted the server with different parameters), deliberately
// not subject to the torn-file fallback.
//
// The payload itself is an opaque snapshot envelope (DESIGN.md §2,
// "Snapshot envelope"), whose protocol ID and fingerprint the aggregator's
// Restore checks again, so the file-level check is an early, cheaper
// rejection, not the only line of defense.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	magic   = "LCKF"
	version = 1
	// header is magic + version + seq + nanos + fingerprint + payload len.
	headerBytes = 4 + 1 + 8 + 8 + 8 + 8
	// trailerBytes is the FNV-1a-64 checksum.
	trailerBytes = 8
	// prefix/suffix of a live checkpoint file: ckpt-%016x.lckf.
	filePrefix = "ckpt-"
	fileSuffix = ".lckf"
	// tmpPrefix marks in-progress writes; stale ones are removed at Open.
	tmpPrefix = ".tmp-ckpt-"
)

// ErrNoCheckpoint is returned by LoadNewest when the directory holds no
// intact checkpoint (none ever written, or every file failed verification).
var ErrNoCheckpoint = errors.New("checkpoint: no valid checkpoint on disk")

// ErrFingerprintMismatch marks a checkpoint that is structurally intact but
// was written by an aggregator with different parameters. It is fatal on
// purpose: silently falling back to an older file would resurrect a stale
// round under the wrong configuration.
var ErrFingerprintMismatch = errors.New("checkpoint: fingerprint mismatch")

// Info describes one on-disk checkpoint.
type Info struct {
	Seq         uint64    // monotone sequence number (per directory)
	Time        time.Time // wall-clock instant Save stamped
	Fingerprint uint64    // aggregator parameter fingerprint (0 if unstated)
	Bytes       int       // payload length
	Path        string    // file path
}

// Manager owns one checkpoint directory. Methods are safe for concurrent
// use; Save serializes internally so two checkpoint triggers cannot
// interleave their sequence numbers or prunes.
type Manager struct {
	dir    string
	retain int
	fp     uint64 // expected fingerprint; 0 disables the file-level check

	mu  sync.Mutex
	seq uint64 // highest sequence number seen or written
}

// Option configures Open.
type Option func(*Manager)

// WithRetain keeps the newest n checkpoints on disk (default 3, minimum 2 —
// the newest file plus the fallback the torn-file recovery path needs).
func WithRetain(n int) Option { return func(m *Manager) { m.retain = n } }

// WithFingerprint pins the aggregator parameter fingerprint: Save stamps it
// into every file and LoadNewest rejects files stamped with a different
// non-zero value as ErrFingerprintMismatch.
func WithFingerprint(fp uint64) Option { return func(m *Manager) { m.fp = fp } }

// Open prepares dir as a checkpoint directory: creates it if needed,
// removes stale temporary files from interrupted writes, and resumes the
// sequence numbering after the newest file already present.
func Open(dir string, opts ...Option) (*Manager, error) {
	m := &Manager{dir: dir, retain: 3}
	for _, opt := range opts {
		opt(m)
	}
	if m.retain < 2 {
		m.retain = 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(filepath.Join(dir, name)) //nolint:errcheck // best-effort cleanup
			continue
		}
		if seq, ok := seqOf(name); ok && seq > m.seq {
			m.seq = seq
		}
	}
	return m, nil
}

// Dir returns the managed directory.
func (m *Manager) Dir() string { return m.dir }

// seqOf parses the sequence number out of a live checkpoint file name.
func seqOf(name string) (uint64, bool) {
	if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, filePrefix), fileSuffix)
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Save durably persists one snapshot payload as the next checkpoint:
// write-temp, fsync, atomic rename, directory fsync, then prune files
// beyond the retention horizon. It returns the new checkpoint's Info.
func (m *Manager) Save(payload []byte) (Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seq := m.seq + 1
	now := time.Now()

	buf := make([]byte, 0, headerBytes+len(payload)+trailerBytes)
	buf = append(buf, magic...)
	buf = append(buf, version)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(now.UnixNano()))
	buf = binary.BigEndian.AppendUint64(buf, m.fp)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	h := fnv.New64a()
	h.Write(buf)
	buf = h.Sum(buf)

	tmp, err := os.CreateTemp(m.dir, tmpPrefix)
	if err != nil {
		return Info{}, fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err == nil {
		err = tmp.Sync()
	} else {
		tmp.Sync() //nolint:errcheck // surface the write error below
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName) //nolint:errcheck // best-effort cleanup
		return Info{}, fmt.Errorf("checkpoint: writing %s: %w", tmpName, err)
	}
	final := filepath.Join(m.dir, fmt.Sprintf("%s%016x%s", filePrefix, seq, fileSuffix))
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName) //nolint:errcheck // best-effort cleanup
		return Info{}, fmt.Errorf("checkpoint: %w", err)
	}
	// The rename is only durable once the directory entry is. A failed
	// directory sync is reported, but the data file itself is complete, so
	// the checkpoint still counts locally.
	syncErr := syncDir(m.dir)
	m.seq = seq
	m.pruneLocked()
	info := Info{Seq: seq, Time: now, Fingerprint: m.fp, Bytes: len(payload), Path: final}
	if syncErr != nil {
		return info, fmt.Errorf("checkpoint: syncing directory: %w", syncErr)
	}
	return info, nil
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// pruneLocked removes live checkpoint files beyond the retention horizon,
// oldest first. Failures are ignored: an unremovable old file costs disk,
// not correctness.
func (m *Manager) pruneLocked() {
	seqs := m.liveSeqs()
	for len(seqs) > m.retain {
		os.Remove(filepath.Join(m.dir, fmt.Sprintf("%s%016x%s", filePrefix, seqs[0], fileSuffix))) //nolint:errcheck
		seqs = seqs[1:]
	}
}

// liveSeqs returns the sequence numbers of the live checkpoint files in
// ascending order.
func (m *Manager) liveSeqs() []uint64 {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := seqOf(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// LoadNewest returns the payload and Info of the newest checkpoint that
// passes integrity verification, skipping torn, truncated or corrupted
// files in favor of older intact ones. It returns ErrNoCheckpoint when no
// file survives, and ErrFingerprintMismatch (fatal, no fallback) when an
// intact checkpoint was written under different aggregator parameters.
func (m *Manager) LoadNewest() ([]byte, Info, error) {
	seqs := m.liveSeqs()
	for i := len(seqs) - 1; i >= 0; i-- {
		path := filepath.Join(m.dir, fmt.Sprintf("%s%016x%s", filePrefix, seqs[i], fileSuffix))
		payload, info, err := readFile(path)
		if err != nil {
			if errors.Is(err, ErrFingerprintMismatch) {
				return nil, Info{}, err
			}
			continue // torn/corrupt: fall back to the previous checkpoint
		}
		if m.fp != 0 && info.Fingerprint != 0 && info.Fingerprint != m.fp {
			return nil, Info{}, fmt.Errorf("%w: checkpoint %s has %016x, aggregator has %016x",
				ErrFingerprintMismatch, filepath.Base(path), info.Fingerprint, m.fp)
		}
		return payload, info, nil
	}
	return nil, Info{}, ErrNoCheckpoint
}

// readFile verifies one checkpoint file end to end and returns its payload.
func readFile(path string) ([]byte, Info, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, Info{}, err
	}
	if len(buf) < headerBytes+trailerBytes {
		return nil, Info{}, fmt.Errorf("checkpoint: %s truncated at %d bytes", path, len(buf))
	}
	if string(buf[:4]) != magic {
		return nil, Info{}, fmt.Errorf("checkpoint: %s has bad magic", path)
	}
	if buf[4] != version {
		return nil, Info{}, fmt.Errorf("checkpoint: %s has unsupported version %d", path, buf[4])
	}
	seq := binary.BigEndian.Uint64(buf[5:])
	nanos := binary.BigEndian.Uint64(buf[13:])
	fp := binary.BigEndian.Uint64(buf[21:])
	plen := binary.BigEndian.Uint64(buf[29:])
	if plen != uint64(len(buf)-headerBytes-trailerBytes) {
		return nil, Info{}, fmt.Errorf("checkpoint: %s declares %d payload bytes, holds %d",
			path, plen, len(buf)-headerBytes-trailerBytes)
	}
	body := buf[:len(buf)-trailerBytes]
	h := fnv.New64a()
	h.Write(body)
	if got, want := binary.BigEndian.Uint64(buf[len(buf)-trailerBytes:]), h.Sum64(); got != want {
		return nil, Info{}, fmt.Errorf("checkpoint: %s checksum %016x, want %016x (torn write?)", path, got, want)
	}
	return body[headerBytes:], Info{
		Seq:         seq,
		Time:        time.Unix(0, int64(nanos)),
		Fingerprint: fp,
		Bytes:       int(plen),
		Path:        path,
	}, nil
}
