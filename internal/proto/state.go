package proto

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Every snapshot travels in one envelope (big endian):
//
//	magic "LSNP" | version u8 | protocol ID u8 | fingerprint u64 | body
//
// The fingerprint is the aggregator's own Fingerprint, the value LCKF
// checkpoint files stamp too, so a snapshot of another kind or parameter
// set is refused before its body is parsed. There is no trailer: LCKF
// files checksum their payloads.
const (
	envelopeMagic   = "LSNP"
	envelopeVersion = 1
	envelopeBytes   = 4 + 1 + 1 + 8
)

// StateCodec is the per-kind snapshot body codec behind a StateAdapter, on
// top of the Kernel the adapter absorbs through. S is the kind's decoded
// state, built without touching the live state. S may keep views into the
// body: the adapter commits it within the Restore or MergeSnapshot call
// that decoded it, and drops it after. The frequency-oracle kinds' S is
// the checked body itself, and the PES and interactive kinds' S views the
// oracle blobs nested in theirs, so no kind copies an oracle's counters to
// load them.
type StateCodec[S any] interface {
	Kernel
	// Fingerprint digests every parameter that shapes the state and the
	// public randomness. It reads only construction-time state.
	Fingerprint() uint64
	// BodyLen returns the exact length of the body AppendBody writes. Lock
	// held.
	BodyLen() int
	// AppendBody appends the body to dst. Lock held: the adapter calls it
	// right after BodyLen, in the same hold of the lock, so a codec may
	// encode its body in BodyLen and only copy it out here.
	AppendBody(dst []byte) []byte
	// DecodeBody parses and fully validates a body. It runs without the
	// lock, so it reads only construction-time state.
	DecodeBody(body []byte) (S, error)
	// Replace installs a decoded state (Restore). Lock held; on error
	// nothing changes.
	Replace(S) error
	// Merge folds a decoded state in (MergeSnapshot). Lock held; on error
	// nothing changes.
	Merge(S) error
}

// StateAdapter is an Adapter that implements Mergeable, once, for every
// snapshot-capable kind: the envelope, one exact-size allocation per
// snapshot, and the lock discipline — encode and commit through the
// adapter's gate, decode and validate outside it. Once Identify has closed
// the round, Snapshot, Restore and MergeSnapshot fail with ErrRoundClosed.
type StateAdapter[S any] struct {
	Adapter
	c  StateCodec[S]
	v1 []byte
}

// NewStateAdapter builds the adapter for the registered codec id over c.
// v1Header is the header a pre-envelope snapshot of this kind carries
// before the same body (nil when the body keeps its own header): Restore
// still accepts those, so checkpoints written before the envelope existed
// recover.
func NewStateAdapter[S any](id byte, c StateCodec[S], v1Header []byte) StateAdapter[S] {
	return StateAdapter[S]{Adapter: NewAdapter(id, c), c: c, v1: v1Header}
}

// Fingerprint states the parameter digest snapshots and checkpoint files
// are pinned to.
func (a *StateAdapter[S]) Fingerprint() uint64 { return a.c.Fingerprint() }

// Snapshot serializes the accumulated state into an envelope allocated
// once, at its final size.
func (a *StateAdapter[S]) Snapshot() (buf []byte, err error) {
	err = a.Gated(func() error {
		buf = make([]byte, 0, envelopeBytes+a.c.BodyLen())
		buf = append(buf, envelopeMagic...)
		buf = append(buf, envelopeVersion, a.codec.ID)
		buf = binary.BigEndian.AppendUint64(buf, a.c.Fingerprint())
		buf = a.c.AppendBody(buf)
		return nil
	})
	return buf, err
}

// Restore replaces the accumulated state with a snapshot from an
// aggregator with an equal Fingerprint: an envelope, or a pre-envelope
// snapshot of this kind. On error the state is unchanged.
func (a *StateAdapter[S]) Restore(buf []byte) error { return a.load(buf, true, a.c.Replace) }

// MergeSnapshot folds a sibling aggregator's snapshot into the state. Only
// envelopes merge: three of the five pre-envelope formats carry no
// fingerprint. On error the state is unchanged.
func (a *StateAdapter[S]) MergeSnapshot(buf []byte) error { return a.load(buf, false, a.c.Merge) }

// load opens and decodes buf without the lock, then commits the decoded
// state through the gate, so a closed round refuses a snapshot once it has
// decoded.
func (a *StateAdapter[S]) load(buf []byte, v1 bool, commit func(S) error) error {
	body, err := a.open(buf, v1)
	if err != nil {
		return err
	}
	s, err := a.c.DecodeBody(body)
	if err != nil {
		return err
	}
	return a.Gated(func() error { return commit(s) })
}

// open checks the envelope header and returns the body, a sub-slice of
// buf. With v1 set, a buffer that carries no envelope but starts with the
// kind's pre-envelope header is accepted too.
func (a *StateAdapter[S]) open(buf []byte, v1 bool) ([]byte, error) {
	name := a.codec.Name
	if !bytes.HasPrefix(buf, []byte(envelopeMagic)) {
		if !v1 {
			return nil, fmt.Errorf("proto: %s snapshot has no envelope (pre-envelope snapshots restore but do not merge)", name)
		}
		if !bytes.HasPrefix(buf, a.v1) {
			return nil, fmt.Errorf("proto: not a %s snapshot: no envelope and no matching pre-envelope header", name)
		}
		return buf[len(a.v1):], nil
	}
	if len(buf) < envelopeBytes {
		return nil, fmt.Errorf("proto: %s snapshot of %d bytes is shorter than the %d-byte envelope", name, len(buf), envelopeBytes)
	}
	if buf[4] != envelopeVersion {
		return nil, fmt.Errorf("proto: unsupported snapshot envelope version %d", buf[4])
	}
	if id := buf[5]; id != a.codec.ID {
		if other, ok := Lookup(id); ok {
			return nil, fmt.Errorf("proto: %s snapshot sent to a %s aggregator", other.Name, name)
		}
		return nil, fmt.Errorf("proto: snapshot protocol ID %#02x, want %#02x (%s)", id, a.codec.ID, name)
	}
	if fp, want := binary.BigEndian.Uint64(buf[6:]), a.c.Fingerprint(); fp != want {
		return nil, fmt.Errorf("proto: %s snapshot fingerprint %016x does not match aggregator %016x (parameters or seed differ)",
			name, fp, want)
	}
	return buf[envelopeBytes:], nil
}
