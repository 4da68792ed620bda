package freqoracle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"ldphh/internal/proto"
)

// The oracles serialize their accumulated counters into small
// versioned binary snapshots so an aggregation server can checkpoint
// mid-collection, resume after a restart, or ship its state to a parent
// aggregator that adds it to its own. The public randomness is NOT
// serialized — it is reproducible from the construction parameters — so a
// snapshot is only loadable into an oracle built from identical parameters;
// CheckSnapshot validates the embedded shape against the receiver and
// rejects mismatches. The blobs are the whole snapshot body of the
// hashtogram, directhistogram and smalldomain kinds, and nest inside the
// PES and interactive bodies.
//
// Loading is split into two primitives, and every load of a blob, inside
// any body, goes through both. CheckSnapshot makes every check
// (header, counter ranges, float finiteness, and the cells of the oracle,
// or of each Hashtogram row, summing in absolute value to at most their
// report count) in place, without allocating and without touching the
// receiver's counters; AddSnapshot then adds a checked snapshot's counters
// straight from its bytes and cannot fail. Restore is CheckSnapshot, then
// Reset and AddSnapshot, so a failed Restore leaves the oracle exactly as
// it was. The header is fixed by the receiver's shape, so it is checked as
// one byte comparison against the receiver's own.
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

// hashtogramHeaderLen is the LHSK header: magic, version, rows, t.
const hashtogramHeaderLen = 4 + 1 + 4 + 4

// appendHeader appends the LHSK header, which is fixed by the sketch's
// shape: a decoder compares it as bytes against its own.
func (h *Hashtogram) appendHeader(dst []byte) []byte {
	dst = append(dst, 'L', 'H', 'S', 'K', 1)
	dst = binary.BigEndian.AppendUint32(dst, uint32(h.p.Rows))
	return binary.BigEndian.AppendUint32(dst, uint32(h.p.T))
}

// SnapshotLen returns the exact length of the snapshot AppendSnapshot
// writes.
func (h *Hashtogram) SnapshotLen() int {
	return hashtogramHeaderLen + 8*h.p.Rows + 8*h.p.Rows*h.p.T
}

// AppendSnapshot appends the accumulated state (format above) to dst.
func (h *Hashtogram) AppendSnapshot(dst []byte) []byte {
	dst = h.appendHeader(dst)
	for _, c := range h.rowCounts {
		dst = binary.BigEndian.AppendUint64(dst, uint64(c))
	}
	// The wire format keeps float64-bits cells: the int64 tallies are exact
	// integers far below 2^53, so the conversion is lossless and the encoded
	// bytes are identical to the historical float64 accumulator's.
	for _, v := range h.acc {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(float64(v)))
	}
	return dst
}

// Snapshot serializes the Hashtogram's accumulated state (format above).
func (h *Hashtogram) Snapshot() ([]byte, error) {
	return h.AppendSnapshot(make([]byte, 0, h.SnapshotLen())), nil
}

// maxSnapshotTally bounds every deserialized counter: report tallies and
// accumulator cells are integers of magnitude at most the report count,
// and nothing beyond 2^53 could have been accumulated exactly — so larger
// (or non-integral) values can only be corruption.
const maxSnapshotTally = uint64(1) << 53

// CheckSnapshot validates a snapshot produced by a sketch with identical
// parameters and returns its report count, without allocating. Row
// counts, and their sum, are checked against maxSnapshotTally on the raw
// uint64 before any int conversion, and each row's cells against its
// count: each report moves one cell of its row by ±1, so a row's absolute
// cells sum to at most the reports it counts. It reads only the
// sketch's construction-time parameters, never its counters, so it may run
// concurrently with Absorb.
func (h *Hashtogram) CheckSnapshot(buf []byte) (reports int, err error) {
	if want := h.SnapshotLen(); len(buf) != want {
		return 0, fmt.Errorf("freqoracle: snapshot length %d, want %d", len(buf), want)
	}
	var hdr [hashtogramHeaderLen]byte
	if !bytes.Equal(buf[:hashtogramHeaderLen], h.appendHeader(hdr[:0])) {
		return 0, fmt.Errorf("freqoracle: snapshot header %x does not match sketch %x (magic, version or shape)",
			buf[:hashtogramHeaderLen], hdr)
	}
	counts := buf[hashtogramHeaderLen : hashtogramHeaderLen+8*h.p.Rows]
	cells := buf[hashtogramHeaderLen+8*h.p.Rows:]
	var sum uint64
	for r := 0; r < h.p.Rows; r++ {
		c := binary.BigEndian.Uint64(counts[8*r:])
		if c > maxSnapshotTally {
			return 0, fmt.Errorf("freqoracle: snapshot row %d count %d exceeds report-tally bound %d", r, c, maxSnapshotTally)
		}
		sum += c
		if sum > maxSnapshotTally {
			return 0, fmt.Errorf("freqoracle: snapshot total report count exceeds bound %d", maxSnapshotTally)
		}
	}
	for r := 0; r < h.p.Rows; r++ {
		row := cells[8*r*h.p.T : 8*(r+1)*h.p.T]
		if err := checkCells(row, r*h.p.T, binary.BigEndian.Uint64(counts[8*r:])); err != nil {
			return 0, err
		}
	}
	return int(sum), nil
}

// AddSnapshot adds the counters of a snapshot CheckSnapshot accepted —
// cells, row counts and total — into the sketch's own. It cannot fail;
// buf must have passed CheckSnapshot on a sketch with identical parameters.
func (h *Hashtogram) AddSnapshot(buf []byte) {
	off := hashtogramHeaderLen
	for r := range h.rowCounts {
		c := int(binary.BigEndian.Uint64(buf[off:]))
		h.rowCounts[r] += c
		h.total += c
		off += 8
	}
	addCells(h.acc, buf[off:])
}

// Reset zeroes the sketch's counters in place.
func (h *Hashtogram) Reset() {
	clear(h.acc)
	clear(h.rowCounts)
	h.total = 0
}

// Restore loads a snapshot produced by a sketch with identical parameters,
// replacing this sketch's accumulated state. On error the state is
// unchanged.
func (h *Hashtogram) Restore(buf []byte) error {
	if _, err := h.CheckSnapshot(buf); err != nil {
		return err
	}
	h.Reset()
	h.AddSnapshot(buf)
	return nil
}

// checkCells checks the big-endian float64 cells of one oracle row (all of
// a DirectHistogram), the first of which is accumulator cell first,
// recorded over reports reports: each must be a validTally, and their
// absolute values must sum to at most reports, since each report moves one
// cell by ±1. That sum bounds every single cell too. +0, the common cell,
// passes both checks on its bits alone. The sum stays below 2^54: it is
// checked after every addend, and reports and each addend are at most
// maxSnapshotTally.
func checkCells(cells []byte, first int, reports uint64) error {
	var sum uint64
	for j := 0; j+8 <= len(cells); j += 8 {
		bits := binary.BigEndian.Uint64(cells[j:])
		if bits == 0 {
			continue
		}
		v := math.Float64frombits(bits)
		if err := validTally(v); err != nil {
			return err
		}
		if sum += uint64(int64(math.Abs(v))); sum > reports {
			return fmt.Errorf("freqoracle: snapshot cell %d lifts the absolute cell sum to %d, which exceeds its report count %d",
				first+j/8, sum, reports)
		}
	}
	return nil
}

// addCells adds checked big-endian float64 cells into acc. Every checked
// cell is an exact integer, so the int64 conversion is lossless.
func addCells(acc []int64, cells []byte) {
	cells = cells[:8*len(acc)]
	for j := range acc {
		acc[j] += int64(math.Float64frombits(binary.BigEndian.Uint64(cells[8*j:])))
	}
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

// directHeaderLen is the LDSK header: magic, version, domain, t, epsBits.
const directHeaderLen = 4 + 1 + 4 + 4 + 8

// appendHeader appends the LDSK header. The privacy parameter is embedded
// as raw float64 bits so a snapshot cannot be restored into an oracle with
// a different ε — the accumulated counters are only meaningful under the
// randomizer that produced them.
func (d *DirectHistogram) appendHeader(dst []byte) []byte {
	dst = append(dst, 'L', 'D', 'S', 'K', 1)
	dst = binary.BigEndian.AppendUint32(dst, uint32(d.domain))
	dst = binary.BigEndian.AppendUint32(dst, uint32(d.t))
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(d.eps))
}

// SnapshotLen returns the exact length of the snapshot AppendSnapshot
// writes.
func (d *DirectHistogram) SnapshotLen() int { return directHeaderLen + 8 + 8*d.t }

// AppendSnapshot appends the accumulated state (format above) to dst.
func (d *DirectHistogram) AppendSnapshot(dst []byte) []byte {
	dst = d.appendHeader(dst)
	dst = binary.BigEndian.AppendUint64(dst, uint64(d.n))
	for _, v := range d.acc {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(float64(v)))
	}
	return dst
}

// Snapshot serializes the DirectHistogram's accumulated state (format
// above).
func (d *DirectHistogram) Snapshot() ([]byte, error) {
	return d.AppendSnapshot(make([]byte, 0, d.SnapshotLen())), nil
}

// CheckSnapshot validates a snapshot produced by an oracle with identical
// parameters and returns its report count, without allocating. The
// absolute cells must sum to at most the report count: each report moves
// one cell by ±1. It reads only the oracle's construction-time parameters,
// never its counters, so it may run concurrently with Absorb.
func (d *DirectHistogram) CheckSnapshot(buf []byte) (reports int, err error) {
	if want := d.SnapshotLen(); len(buf) != want {
		return 0, fmt.Errorf("freqoracle: snapshot length %d, want %d", len(buf), want)
	}
	var hdr [directHeaderLen]byte
	if !bytes.Equal(buf[:directHeaderLen], d.appendHeader(hdr[:0])) {
		return 0, fmt.Errorf("freqoracle: snapshot header %x does not match histogram %x (magic, version, shape or eps)",
			buf[:directHeaderLen], hdr)
	}
	n := binary.BigEndian.Uint64(buf[directHeaderLen:])
	if n > maxSnapshotTally {
		return 0, fmt.Errorf("freqoracle: snapshot report count %d exceeds report-tally bound %d", n, maxSnapshotTally)
	}
	if err := checkCells(buf[directHeaderLen+8:], 0, n); err != nil {
		return 0, err
	}
	return int(n), nil
}

// AddSnapshot adds the counters of a snapshot CheckSnapshot accepted —
// cells and report count — into the oracle's own. It cannot fail; buf
// must have passed CheckSnapshot on an oracle with identical parameters.
func (d *DirectHistogram) AddSnapshot(buf []byte) {
	d.n += int(binary.BigEndian.Uint64(buf[directHeaderLen:]))
	addCells(d.acc, buf[directHeaderLen+8:])
}

// Reset zeroes the oracle's counters in place.
func (d *DirectHistogram) Reset() {
	clear(d.acc)
	d.n = 0
}

// Restore loads a snapshot produced by an oracle with identical parameters,
// replacing this oracle's accumulated state. On error the state is
// unchanged.
func (d *DirectHistogram) Restore(buf []byte) error {
	if _, err := d.CheckSnapshot(buf); err != nil {
		return err
	}
	d.Reset()
	d.AddSnapshot(buf)
	return nil
}
