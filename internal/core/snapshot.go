package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"ldphh/internal/par"
	"ldphh/internal/proto"
)

// Protocol-level snapshots make the whole server-side accumulated state
// mergeable and network-transportable: a leaf aggregator that has absorbed a
// shard of the fleet's reports can Snapshot its state, ship the bytes to a
// parent, and the parent folds them in with MergeSnapshot — the fan-in tree
// deployment of Bassily-Nissim-Stemmer-Thakurta (2017). Because every
// counter is an exact integer tally of ±1 reports, merge order cannot
// change any estimate: a root that merges k leaf snapshots identifies the
// bit-identical heavy-hitter list a single aggregator would have produced
// from the union of the reports (the cross-layer equivalence suite enforces
// this at every layer, under the race detector, and over real TCP).
//
// Snapshots travel in the proto envelope, which carries the kind and the
// Fingerprint; the body (big endian) is
//
//	m u32 | absorbed u64 | groupN []u64 | per coordinate: len u32 +
//	DirectHistogram "LDSK" blob | len u32 + confirmation Hashtogram "LHSK"
//	blob
//
// — format "LPSK" version 1 after its "LPSK" | 1 | fingerprint header, so
// pre-envelope LPSK checkpoints still restore (see Wire). Each blob
// carries its own version: Snapshot writes version 2, which holds only
// the nonzero cells, so a body grows with its reports rather than with
// its M+1 tables, and Restore and MergeSnapshot read version 1 blobs too
// (see freqoracle's snapshot.go).
//
// The fingerprint pins every parameter that shapes the accumulated state or
// the public randomness (see Fingerprint); a snapshot from a protocol built
// with a different Seed, ε or sketch geometry is rejected before any state
// is touched. Workers is deliberately excluded — it is a pure throughput
// knob, so aggregators in one tree may size their pools independently.

// fingerprintLabel seeds the parameter fingerprint so it cannot collide
// with any other FNV-1a use in the module.
const fingerprintLabel = "ldphh/core.Params/v1"

// Fingerprint returns a 64-bit digest of every parameter that determines
// the protocol's accumulated-state shape and public randomness: Eps, N,
// ItemBytes, the code/coordinate geometry (M, one chunk byte, Y, F, D, B,
// g's independence, ℓ, TauFactor), Seed, and the confirmation-oracle
// parameters. Two protocols with equal fingerprints absorb interchangeable
// reports and produce mergeable snapshots. Workers is excluded: it never
// feeds public randomness or state shape.
func (pr *Protocol) Fingerprint() uint64 {
	conf := pr.conf.Params()
	return proto.Fingerprint(fingerprintLabel,
		math.Float64bits(pr.p.Eps),
		uint64(pr.p.N),
		uint64(pr.p.ItemBytes),
		uint64(pr.p.M),
		chunkBytes,
		uint64(pr.p.Y),
		uint64(pr.p.F),
		uint64(pr.p.D),
		uint64(pr.p.B),
		uint64(pr.p.gWise()),
		uint64(pr.p.listCap()),
		math.Float64bits(pr.p.TauFactor),
		pr.p.Seed,
		uint64(conf.Rows),
		uint64(conf.T),
		conf.Seed,
	)
}

// Snapshot serializes the protocol's full accumulated (pre-Identify) state:
// the per-coordinate DirectHistogram counters, the confirmation Hashtogram
// counters, and the group occupancy the admission thresholds derive from.
// The bytes restore only into a protocol with an equal Fingerprint, and
// are the bytes Wire().Snapshot() produces: both go through the one
// adapter.
func (pr *Protocol) Snapshot() ([]byte, error) { return pr.w.Snapshot() }

// Restore replaces the protocol's accumulated state with a snapshot taken
// from a protocol with an equal Fingerprint (checkpoint/resume). On error
// the protocol is exactly as it was.
func (pr *Protocol) Restore(buf []byte) error { return pr.w.Restore(buf) }

// MergeSnapshot folds a child aggregator's snapshot into this protocol,
// adding its counters to the running totals — the parent half of the
// fan-in tree. The snapshot must come from a protocol with an equal
// Fingerprint; it is validated outside the lock and folded under it, so
// concurrent Absorb traffic interleaves safely.
func (pr *Protocol) MergeSnapshot(buf []byte) error { return pr.w.MergeSnapshot(buf) }

// MergeFrom folds another in-process protocol's accumulated state into this
// one (both must share a Fingerprint; neither may have run Identify). It
// serializes the source under its own lock and merges under the
// receiver's, so the two locks are never held together and concurrent
// cross-merges cannot deadlock. The source keeps its state; merging the
// same aggregator twice double-counts its reports.
func (pr *Protocol) MergeFrom(other *Protocol) error {
	snap, err := other.Snapshot()
	if err != nil {
		return err
	}
	return pr.MergeSnapshot(snap)
}

// accumulator is a validated snapshot body: its group counts and report
// total, and views into the caller's buffer of its M+1 oracle blobs (the M
// coordinates', then the confirmation oracle's). The adapter commits it
// within the Restore or MergeSnapshot call that decoded it, so the views
// never outlive the caller's loan of the buffer.
type accumulator struct {
	groupN   []int
	absorbed int
	blobs    [][]byte
}

// snapshotOracle is what the PES codec needs of the M+1 oracles whose
// blobs make up a snapshot body: the coordinate DirectHistograms and the
// confirmation Hashtogram.
type snapshotOracle interface {
	AppendSnapshot(dst []byte) []byte
	CheckSnapshot(blob []byte) (reports int, err error)
	AddSnapshot(blob []byte)
	Reset()
}

// oracle returns the oracle of blob i: coordinate i's for i < M, the
// confirmation oracle for i = M.
func (pr *Protocol) oracle(i int) snapshotOracle {
	if i < pr.p.M {
		return pr.direct[i]
	}
	return pr.conf
}

// The pesKernel methods below are PESWire's proto.StateCodec. BodyLen,
// AppendBody, Replace and Merge run under the adapter lock; DecodeBody
// runs without it and reads only the oracle pointers and their
// construction-time parameters, which never change. BodyLen writes the
// M+1 blobs, and DecodeBody, Replace and Merge hand them out, whole to a
// pool of Params.Workers goroutines; a goroutine writes only its blob's
// bytes, oracle or error slot, so bytes, state and errors are the same at
// every worker count.

func (k pesKernel) Fingerprint() uint64 { return k.pr.Fingerprint() }

// BodyLen writes each oracle's blob into its slot of pr.blobs, reusing
// the slot's buffer, so a snapshot reads the M+1 tables' cells once;
// AppendBody then copies the blobs out.
func (k pesKernel) BodyLen() int {
	pr := k.pr
	par.Range(len(pr.blobs), pr.p.Workers, func(i int) {
		pr.blobs[i] = pr.oracle(i).AppendSnapshot(pr.blobs[i][:0])
	})
	n := 4 + 8 + 8*pr.p.M
	for _, b := range pr.blobs {
		n += 4 + len(b)
	}
	return n
}

func (k pesKernel) AppendBody(buf []byte) []byte {
	pr := k.pr
	buf = binary.BigEndian.AppendUint32(buf, uint32(pr.p.M))
	buf = binary.BigEndian.AppendUint64(buf, uint64(pr.absorbed))
	for _, n := range pr.groupN {
		buf = binary.BigEndian.AppendUint64(buf, uint64(n))
	}
	for _, b := range pr.blobs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
		buf = append(buf, b...)
	}
	return buf
}

// DecodeBody validates a snapshot body end to end without copying its
// counters: the header and the blob framing serially, then the M+1 oracle
// blobs concurrently, returning the lowest-index blob's error at every
// worker count. Every structural, shape, range and cross-consistency check
// happens here, so Replace and Merge commit without a failure path.
// Rejected inputs: a coordinate count other than M, truncated or oversized
// buffers, negative counters, non-finite, non-integral or oversized
// accumulator values, and group/oracle report tallies that disagree with
// each other.
func (k pesKernel) DecodeBody(buf []byte) (*accumulator, error) {
	pr := k.pr
	const header = 4 + 8
	if len(buf) < header {
		return nil, fmt.Errorf("core: snapshot too short (%d bytes)", len(buf))
	}
	if m := int(binary.BigEndian.Uint32(buf)); m != pr.p.M {
		return nil, fmt.Errorf("core: snapshot has %d coordinates, protocol has %d", m, pr.p.M)
	}
	absorbed := binary.BigEndian.Uint64(buf[4:])
	if absorbed > math.MaxInt64 {
		return nil, fmt.Errorf("core: snapshot report count %d is negative", int64(absorbed))
	}
	off := header
	if len(buf) < off+8*pr.p.M {
		return nil, fmt.Errorf("core: snapshot truncated in group counts")
	}
	acc := &accumulator{
		groupN:   make([]int, pr.p.M),
		absorbed: int(absorbed),
		blobs:    make([][]byte, pr.p.M+1),
	}
	var sum uint64
	for m := range acc.groupN {
		n := binary.BigEndian.Uint64(buf[off:])
		if n > math.MaxInt64 {
			return nil, fmt.Errorf("core: snapshot group %d count %d is negative", m, int64(n))
		}
		sum += n
		if sum > absorbed {
			return nil, fmt.Errorf("core: snapshot group counts exceed total %d", absorbed)
		}
		acc.groupN[m] = int(n)
		off += 8
	}
	if sum != absorbed {
		return nil, fmt.Errorf("core: snapshot group counts sum to %d, total says %d", sum, absorbed)
	}
	for i := range acc.blobs {
		if len(buf) < off+4 {
			return nil, fmt.Errorf("core: snapshot truncated in blob length")
		}
		n := int(binary.BigEndian.Uint32(buf[off:]))
		off += 4
		if n > len(buf)-off {
			return nil, fmt.Errorf("core: snapshot blob length %d exceeds remaining %d", n, len(buf)-off)
		}
		acc.blobs[i] = buf[off : off+n]
		off += n
	}
	if off != len(buf) {
		return nil, fmt.Errorf("core: snapshot has %d trailing bytes", len(buf)-off)
	}
	errs := make([]error, len(acc.blobs))
	par.Range(len(acc.blobs), pr.p.Workers, func(i int) { errs[i] = k.checkBlob(acc, i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// checkBlob validates blob i of acc against its oracle's shape and its
// report count against the body's group count or total.
func (k pesKernel) checkBlob(acc *accumulator, i int) error {
	pr := k.pr
	got, err := pr.oracle(i).CheckSnapshot(acc.blobs[i])
	if i == pr.p.M {
		if err != nil {
			return fmt.Errorf("core: snapshot confirmation oracle: %w", err)
		}
		if got != acc.absorbed {
			return fmt.Errorf("core: snapshot confirmation oracle holds %d reports, total says %d",
				got, acc.absorbed)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: snapshot coordinate %d: %w", i, err)
	}
	if got != acc.groupN[i] {
		return fmt.Errorf("core: snapshot coordinate %d holds %d reports, group count says %d",
			i, got, acc.groupN[i])
	}
	return nil
}

// Replace zeroes each oracle's counters in place and adds its validated
// blob; the oracle pointers stay put, since DecodeBody reads them without
// the lock.
func (k pesKernel) Replace(acc *accumulator) error {
	pr := k.pr
	par.Range(len(acc.blobs), pr.p.Workers, func(i int) {
		o := pr.oracle(i)
		o.Reset()
		o.AddSnapshot(acc.blobs[i])
	})
	copy(pr.groupN, acc.groupN)
	pr.absorbed = acc.absorbed
	return nil
}

// Merge adds a validated snapshot's counters into the server state.
func (k pesKernel) Merge(acc *accumulator) error {
	pr := k.pr
	par.Range(len(acc.blobs), pr.p.Workers, func(i int) { pr.oracle(i).AddSnapshot(acc.blobs[i]) })
	for m, n := range acc.groupN {
		pr.groupN[m] += n
	}
	pr.absorbed += acc.absorbed
	return nil
}
