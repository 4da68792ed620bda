package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"ldphh/internal/proto"
)

// Protocol-level snapshots make the whole server-side accumulated state
// mergeable and network-transportable: a leaf aggregator that has absorbed a
// shard of the fleet's reports can Snapshot its state, ship the bytes to a
// parent, and the parent folds them in with MergeSnapshot — the fan-in tree
// deployment of Bassily-Nissim-Stemmer-Thakurta (2017). Because every
// counter is an exact small integer in float64, merge order cannot change
// any estimate: a root that merges k leaf snapshots identifies the
// bit-identical heavy-hitter list a single aggregator would have produced
// from the union of the reports (the cross-layer equivalence suite enforces
// this at every layer, under the race detector, and over real TCP).
//
// Format "LPSK" version 1 (big endian):
//
//	magic "LPSK" | version u8 | fingerprint u64 | m u32 | absorbed u64 |
//	groupN []u64 | per coordinate: len u32 + DirectHistogram "LDSK" blob |
//	len u32 + confirmation Hashtogram "LHSK" blob
//
// The fingerprint pins every parameter that shapes the accumulated state or
// the public randomness (see Fingerprint); a snapshot from a protocol built
// with a different Seed, ε or sketch geometry is rejected before any state
// is touched. Workers is deliberately excluded — it is a pure throughput
// knob, so aggregators in one tree may size their pools independently.

// snapshotVersion is the current LPSK format version.
const snapshotVersion = 1

// fingerprintLabel seeds the parameter fingerprint so it cannot collide
// with any other FNV-1a use in the module.
const fingerprintLabel = "ldphh/core.Params/v1"

// Fingerprint returns a 64-bit digest of every parameter that determines
// the protocol's accumulated-state shape and public randomness: Eps, N,
// ItemBytes, the code/coordinate geometry (M, ChunkBytes, Y, F, D, B,
// GWise, ListCap, TauFactor), Seed, and the defaulted confirmation-oracle
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
		uint64(pr.p.ChunkBytes),
		uint64(pr.p.Y),
		uint64(pr.p.F),
		uint64(pr.p.D),
		uint64(pr.p.B),
		uint64(pr.p.GWise),
		uint64(pr.p.ListCap),
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
// The bytes restore only into a protocol with an equal Fingerprint.
func (pr *Protocol) Snapshot() ([]byte, error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.finalized {
		return nil, fmt.Errorf("core: Snapshot after Identify")
	}
	buf := make([]byte, 0, 64)
	buf = append(buf, 'L', 'P', 'S', 'K', snapshotVersion)
	buf = binary.BigEndian.AppendUint64(buf, pr.Fingerprint())
	buf = binary.BigEndian.AppendUint32(buf, uint32(pr.p.M))
	buf = binary.BigEndian.AppendUint64(buf, uint64(pr.absorbed))
	for _, n := range pr.groupN {
		buf = binary.BigEndian.AppendUint64(buf, uint64(n))
	}
	for m := 0; m < pr.p.M; m++ {
		blob, err := pr.direct[m].Snapshot()
		if err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
	}
	blob, err := pr.conf.Snapshot()
	if err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(blob)))
	buf = append(buf, blob...)
	return buf, nil
}

// decodeSnapshot validates an LPSK snapshot end to end and materializes it
// as a fresh Accumulator (sharing this protocol's public randomness,
// owning the decoded counters). It also returns the M+1 oracle blob
// sub-slices (per-coordinate DirectHistogram snapshots, then the
// confirmation Hashtogram snapshot) so Restore can commit through the same
// parse — this function owns the layout walking; no other code re-derives
// offsets. Nothing in the protocol is mutated; every structural, shape,
// range and cross-consistency check happens here, so callers can commit
// the result without a failure path. Rejected inputs: wrong magic/version,
// fingerprint mismatch, truncated or oversized buffers, negative counters,
// non-finite accumulator values, and group/oracle report tallies that
// disagree with each other.
func (pr *Protocol) decodeSnapshot(buf []byte) (*Accumulator, [][]byte, error) {
	const header = 4 + 1 + 8 + 4 + 8
	if len(buf) < header {
		return nil, nil, fmt.Errorf("core: snapshot too short (%d bytes)", len(buf))
	}
	if string(buf[:4]) != "LPSK" {
		return nil, nil, fmt.Errorf("core: bad snapshot magic")
	}
	if buf[4] != snapshotVersion {
		return nil, nil, fmt.Errorf("core: unsupported snapshot version %d", buf[4])
	}
	if fp := binary.BigEndian.Uint64(buf[5:]); fp != pr.Fingerprint() {
		return nil, nil, fmt.Errorf("core: snapshot fingerprint %016x does not match protocol %016x (parameters or seed differ)",
			fp, pr.Fingerprint())
	}
	if m := int(binary.BigEndian.Uint32(buf[13:])); m != pr.p.M {
		return nil, nil, fmt.Errorf("core: snapshot has %d coordinates, protocol has %d", m, pr.p.M)
	}
	absorbed := binary.BigEndian.Uint64(buf[17:])
	if absorbed > math.MaxInt64 {
		return nil, nil, fmt.Errorf("core: snapshot report count %d is negative", int64(absorbed))
	}
	off := header
	if len(buf) < off+8*pr.p.M {
		return nil, nil, fmt.Errorf("core: snapshot truncated in group counts")
	}
	groupN := make([]int, pr.p.M)
	var sum uint64
	for m := range groupN {
		n := binary.BigEndian.Uint64(buf[off:])
		if n > math.MaxInt64 {
			return nil, nil, fmt.Errorf("core: snapshot group %d count %d is negative", m, int64(n))
		}
		sum += n
		if sum > absorbed {
			return nil, nil, fmt.Errorf("core: snapshot group counts exceed total %d", absorbed)
		}
		groupN[m] = int(n)
		off += 8
	}
	if sum != absorbed {
		return nil, nil, fmt.Errorf("core: snapshot group counts sum to %d, total says %d", sum, absorbed)
	}
	nextBlob := func() ([]byte, error) {
		if len(buf) < off+4 {
			return nil, fmt.Errorf("core: snapshot truncated in blob length")
		}
		n := int(binary.BigEndian.Uint32(buf[off:]))
		off += 4
		if n > len(buf)-off {
			return nil, fmt.Errorf("core: snapshot blob length %d exceeds remaining %d", n, len(buf)-off)
		}
		blob := buf[off : off+n]
		off += n
		return blob, nil
	}
	acc := pr.NewAccumulator()
	blobs := make([][]byte, 0, pr.p.M+1)
	for m := 0; m < pr.p.M; m++ {
		blob, err := nextBlob()
		if err != nil {
			return nil, nil, err
		}
		if err := acc.direct[m].Restore(blob); err != nil {
			return nil, nil, fmt.Errorf("core: snapshot coordinate %d: %w", m, err)
		}
		if got := acc.direct[m].TotalReports(); got != groupN[m] {
			return nil, nil, fmt.Errorf("core: snapshot coordinate %d holds %d reports, group count says %d",
				m, got, groupN[m])
		}
		blobs = append(blobs, blob)
	}
	blob, err := nextBlob()
	if err != nil {
		return nil, nil, err
	}
	if err := acc.conf.Restore(blob); err != nil {
		return nil, nil, fmt.Errorf("core: snapshot confirmation oracle: %w", err)
	}
	if got := acc.conf.TotalReports(); uint64(got) != absorbed {
		return nil, nil, fmt.Errorf("core: snapshot confirmation oracle holds %d reports, total says %d",
			got, absorbed)
	}
	if off != len(buf) {
		return nil, nil, fmt.Errorf("core: snapshot has %d trailing bytes", len(buf)-off)
	}
	blobs = append(blobs, blob)
	copy(acc.groupN, groupN)
	acc.absorbed = int(absorbed)
	return acc, blobs, nil
}

// Restore replaces the protocol's accumulated state with a snapshot taken
// from a protocol with an equal Fingerprint (checkpoint/resume). It is
// atomic: validation completes before any state changes, so on error the
// protocol is exactly as it was.
func (pr *Protocol) Restore(buf []byte) error {
	acc, blobs, err := pr.decodeSnapshot(buf)
	if err != nil {
		return err
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.finalized {
		return fmt.Errorf("core: Restore after Identify")
	}
	// Commit in place (the oracle pointers stay put, preserving the
	// protocol's pointers-are-immutable invariant that unlocked
	// NewAccumulator readers rely on). Each blob was already accepted by an
	// identically-parameterized accumulator in decodeSnapshot, and the
	// oracle Restores are themselves validate-then-commit, so these cannot
	// fail and the whole commit is atomic.
	for m := 0; m < pr.p.M; m++ {
		if err := pr.direct[m].Restore(blobs[m]); err != nil {
			return fmt.Errorf("core: restoring coordinate %d: %w", m, err)
		}
	}
	if err := pr.conf.Restore(blobs[pr.p.M]); err != nil {
		return fmt.Errorf("core: restoring confirmation oracle: %w", err)
	}
	copy(pr.groupN, acc.groupN)
	pr.absorbed = acc.absorbed
	return nil
}

// MergeSnapshot folds a child aggregator's serialized state into this
// protocol, adding its counters to the running totals — the parent half of
// the fan-in tree. The snapshot must come from a protocol with an equal
// Fingerprint; it is fully validated before the merge, and the merge itself
// is one locked Accumulator fold, so concurrent Absorb/Merge traffic
// interleaves safely.
func (pr *Protocol) MergeSnapshot(buf []byte) error {
	acc, _, err := pr.decodeSnapshot(buf)
	if err != nil {
		return err
	}
	return pr.Merge(acc)
}

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
