package freqoracle

import (
	"encoding/binary"
	"fmt"
	"math"

	"ldphh/internal/proto"
)

// The oracles serialize their accumulated (non-finalized) state into small
// versioned binary snapshots so an aggregation server can checkpoint
// mid-collection, resume after a restart, or ship its state to a parent
// aggregator that folds it in with Merge. The public randomness is NOT
// serialized — it is reproducible from the construction parameters — so a
// snapshot is only loadable into an oracle built from identical parameters;
// Restore validates the embedded shape against the receiver and rejects
// mismatches.
//
// Restore is atomic: it fully validates the snapshot (magic, version,
// shape, counter ranges, float finiteness) before touching any state, so a
// failed Restore leaves the oracle exactly as it was.
//
// Hashtogram format "LHSK" version 1 (big endian), pinned by
// TestSnapshotGoldenBytes:
//
//	magic "LHSK" | version u8 | rows u32 | t u32 | rowCounts []u64 | acc []f64
//
// DirectHistogram format "LDSK" version 1 (big endian), pinned by
// TestDirectSnapshotGoldenBytes:
//
//	magic "LDSK" | version u8 | domain u32 | t u32 | epsBits u64 | n u64 | acc []f64

// Fingerprint returns a 64-bit digest of every parameter that determines
// the Hashtogram's accumulated-state shape and public randomness: ε, the
// sketch geometry and the seed. Two sketches with equal fingerprints absorb
// interchangeable reports and produce mutually loadable snapshots; the
// checkpoint layer stamps it into checkpoint file headers.
func (h *Hashtogram) Fingerprint() uint64 {
	return proto.Fingerprint("ldphh/freqoracle.Hashtogram/v1",
		math.Float64bits(h.p.Eps), uint64(h.p.Rows), uint64(h.p.T), h.p.Seed)
}

// Fingerprint returns a 64-bit digest of every parameter that determines
// the DirectHistogram's accumulated-state shape and randomizer: ε, the
// domain and the derived Hadamard width. The histogram draws no seeded
// public randomness, so the parameters alone pin snapshot compatibility.
func (d *DirectHistogram) Fingerprint() uint64 {
	return proto.Fingerprint("ldphh/freqoracle.DirectHistogram/v1",
		math.Float64bits(d.eps), uint64(d.domain), uint64(d.t))
}

// Snapshot serializes the Hashtogram's accumulated state (format above).
func (h *Hashtogram) Snapshot() ([]byte, error) {
	if h.finalized {
		return nil, fmt.Errorf("freqoracle: Snapshot after Finalize")
	}
	size := 4 + 1 + 4 + 4 + 8*h.p.Rows + 8*h.p.Rows*h.p.T
	buf := make([]byte, 0, size)
	buf = append(buf, 'L', 'H', 'S', 'K', 1)
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.p.Rows))
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.p.T))
	for _, c := range h.rowCounts {
		buf = binary.BigEndian.AppendUint64(buf, uint64(c))
	}
	// The wire format keeps float64-bits cells: the int64 tallies are exact
	// integers far below 2^53, so the conversion is lossless and the encoded
	// bytes are identical to the historical float64 accumulator's.
	for _, v := range h.acc {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(float64(v)))
	}
	return buf, nil
}

// maxSnapshotTally bounds every deserialized counter: report tallies and
// accumulator cells are integer-valued with magnitude at most the absorbed
// report count, and anything beyond 2^53 could not even have been
// accumulated exactly — so larger (or non-integral) values can only come
// from corruption and are rejected before conversion, with no reliance on
// signed wraparound.
const maxSnapshotTally = uint64(1) << 53

// Restore loads a snapshot produced by a sketch with identical parameters,
// replacing this sketch's accumulated state. On error the state is
// unchanged.
func (h *Hashtogram) Restore(buf []byte) error {
	if h.finalized {
		return fmt.Errorf("freqoracle: Restore after Finalize")
	}
	want := 4 + 1 + 4 + 4 + 8*h.p.Rows + 8*h.p.Rows*h.p.T
	if len(buf) != want {
		return fmt.Errorf("freqoracle: snapshot length %d, want %d", len(buf), want)
	}
	if string(buf[:4]) != "LHSK" {
		return fmt.Errorf("freqoracle: bad snapshot magic")
	}
	if buf[4] != 1 {
		return fmt.Errorf("freqoracle: unsupported snapshot version %d", buf[4])
	}
	rows := int(binary.BigEndian.Uint32(buf[5:]))
	t := int(binary.BigEndian.Uint32(buf[9:]))
	if rows != h.p.Rows || t != h.p.T {
		return fmt.Errorf("freqoracle: snapshot shape (%d,%d) does not match sketch (%d,%d)",
			rows, t, h.p.Rows, h.p.T)
	}
	// Validation pass: every counter must be a plausible accumulator value
	// before anything is committed. Row counts are report tallies, so each —
	// and their sum, which becomes the total — is checked against the
	// explicit maxSnapshotTally bound on the raw uint64 before any int
	// conversion; accumulator cells are sums of ±1 reports, so anything
	// non-finite, non-integral or beyond the bound can only be corruption.
	off := 13
	var sum uint64
	for r := 0; r < rows; r++ {
		c := binary.BigEndian.Uint64(buf[off:])
		if c > maxSnapshotTally {
			return fmt.Errorf("freqoracle: snapshot row %d count %d exceeds report-tally bound %d", r, c, maxSnapshotTally)
		}
		sum += c
		if sum > maxSnapshotTally {
			return fmt.Errorf("freqoracle: snapshot total report count exceeds bound %d", maxSnapshotTally)
		}
		off += 8
	}
	for i := 0; i < rows*t; i++ {
		v := math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
		if err := validTally(v); err != nil {
			return err
		}
		off += 8
	}
	// Commit pass.
	off = 13
	h.total = int(sum)
	for r := 0; r < rows; r++ {
		h.rowCounts[r] = int(binary.BigEndian.Uint64(buf[off:]))
		off += 8
	}
	for j := range h.acc {
		h.acc[j] = int64(math.Float64frombits(binary.BigEndian.Uint64(buf[off:])))
		off += 8
	}
	return nil
}

// validTally accepts exactly the float64 values an accumulator cell can
// hold: finite, integral, magnitude at most maxSnapshotTally. Every
// accepted value converts to int64 and back to the identical float64 bits,
// which is what keeps the canonical round-trip property intact across the
// int64 accumulator layout.
func validTally(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("freqoracle: snapshot accumulator value %v is not finite", v)
	}
	if v != math.Trunc(v) || v > float64(maxSnapshotTally) || v < -float64(maxSnapshotTally) {
		return fmt.Errorf("freqoracle: snapshot accumulator value %v is not an integral report tally", v)
	}
	if v == 0 && math.Signbit(v) {
		// ±1 sums can never produce -0.0, and it would re-encode as +0.0,
		// breaking the canonical round-trip property.
		return fmt.Errorf("freqoracle: snapshot accumulator value -0 is not canonical")
	}
	return nil
}

// Snapshot serializes the DirectHistogram's accumulated state (format
// above). The privacy parameter is embedded as raw float64 bits so a
// snapshot cannot be restored into an oracle with a different ε — the
// accumulated counters are only meaningful under the randomizer that
// produced them.
func (d *DirectHistogram) Snapshot() ([]byte, error) {
	if d.finalized {
		return nil, fmt.Errorf("freqoracle: Snapshot after Finalize")
	}
	size := 4 + 1 + 4 + 4 + 8 + 8 + 8*d.t
	buf := make([]byte, 0, size)
	buf = append(buf, 'L', 'D', 'S', 'K', 1)
	buf = binary.BigEndian.AppendUint32(buf, uint32(d.domain))
	buf = binary.BigEndian.AppendUint32(buf, uint32(d.t))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(d.eps))
	buf = binary.BigEndian.AppendUint64(buf, uint64(d.n))
	for _, v := range d.acc {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(float64(v)))
	}
	return buf, nil
}

// Restore loads a snapshot produced by an oracle with identical parameters,
// replacing this oracle's accumulated state. On error the state is
// unchanged.
func (d *DirectHistogram) Restore(buf []byte) error {
	if d.finalized {
		return fmt.Errorf("freqoracle: Restore after Finalize")
	}
	want := 4 + 1 + 4 + 4 + 8 + 8 + 8*d.t
	if len(buf) != want {
		return fmt.Errorf("freqoracle: snapshot length %d, want %d", len(buf), want)
	}
	if string(buf[:4]) != "LDSK" {
		return fmt.Errorf("freqoracle: bad snapshot magic")
	}
	if buf[4] != 1 {
		return fmt.Errorf("freqoracle: unsupported snapshot version %d", buf[4])
	}
	domain := int(binary.BigEndian.Uint32(buf[5:]))
	t := int(binary.BigEndian.Uint32(buf[9:]))
	if domain != d.domain || t != d.t {
		return fmt.Errorf("freqoracle: snapshot shape (%d,%d) does not match histogram (%d,%d)",
			domain, t, d.domain, d.t)
	}
	if epsBits := binary.BigEndian.Uint64(buf[13:]); epsBits != math.Float64bits(d.eps) {
		return fmt.Errorf("freqoracle: snapshot eps %v does not match histogram eps %v",
			math.Float64frombits(epsBits), d.eps)
	}
	n := binary.BigEndian.Uint64(buf[21:])
	if n > maxSnapshotTally {
		return fmt.Errorf("freqoracle: snapshot report count %d exceeds report-tally bound %d", n, maxSnapshotTally)
	}
	off := 29
	for j := 0; j < t; j++ {
		v := math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
		if err := validTally(v); err != nil {
			return err
		}
		off += 8
	}
	// Commit pass.
	d.n = int(n)
	off = 29
	for j := 0; j < t; j++ {
		d.acc[j] = int64(math.Float64frombits(binary.BigEndian.Uint64(buf[off:])))
		off += 8
	}
	return nil
}
