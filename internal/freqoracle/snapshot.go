package freqoracle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"ldphh/internal/hadamard"
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
// Both oracles are one table (table.go), so there is one codec, written
// on the table and promoted to Hashtogram and DirectHistogram: a blob is
// the header its oracle's parameters fix, then the table's row counts,
// then its cells. A DirectHistogram's one row count is its report count n.
//
// Loading is split into two primitives, and every load of a blob, inside
// any body, goes through both. CheckSnapshot makes every check (header,
// counter ranges, float finiteness, and the cells of each row summing in
// absolute value to at most the row's report count) in place, without
// allocating and without touching the receiver's counters; AddSnapshot
// then adds a checked snapshot's counters straight from its bytes and
// cannot fail. Restore is CheckSnapshot, then Reset and AddSnapshot, so a
// failed Restore leaves the oracle exactly as it was. The header is fixed
// by the receiver's shape, so it is checked as one byte comparison against
// the receiver's own. A blob's shape is a value (blobShape), so
// CheckDirectSnapshot checks an LDSK blob against parameters without
// building an oracle.
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

// blobShape is a table's geometry and the header its blobs carry, both
// fixed by the oracle's parameters: a blob is hdr, then rows report
// counts, then rows × t cells.
type blobShape struct {
	hdr     []byte // LHSK or LDSK header; a blob's must equal it byte for byte
	rows, t int
}

// hashtogramShape is the LHSK shape of an R-row sketch of width t; its
// header is magic, version, rows, t.
func hashtogramShape(rows, t int) blobShape {
	hdr := append(make([]byte, 0, 4+1+4+4), "LHSK\x01"...)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(rows))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(t))
	return blobShape{hdr: hdr, rows: rows, t: t}
}

// directShape is the LDSK shape of a DirectHistogram over domain at eps:
// one row over the padded report domain t = NextPow2(domain), at least 2.
// Its header is magic, version, domain, t and ε as raw float64 bits, so a
// snapshot cannot be restored into an oracle with a different ε — the
// accumulated counters are only meaningful under the randomizer that
// produced them.
func directShape(eps float64, domain int) blobShape {
	t := max(hadamard.NextPow2(domain), 2)
	hdr := append(make([]byte, 0, 4+1+4+4+8), "LDSK\x01"...)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(domain))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(t))
	hdr = binary.BigEndian.AppendUint64(hdr, math.Float64bits(eps))
	return blobShape{hdr: hdr, rows: 1, t: t}
}

// SnapshotLen returns the exact length of the snapshot AppendSnapshot
// writes.
func (s *blobShape) SnapshotLen() int { return len(s.hdr) + 8*s.rows + 8*s.rows*s.t }

// AppendSnapshot appends the accumulated state (format above) to dst.
func (tb *table) AppendSnapshot(dst []byte) []byte {
	dst = append(dst, tb.hdr...)
	for _, c := range tb.rowCounts {
		dst = binary.BigEndian.AppendUint64(dst, uint64(c))
	}
	// The wire format keeps float64-bits cells: the int64 tallies are exact
	// integers far below 2^53, so the conversion is lossless and the encoded
	// bytes are identical to the historical float64 accumulator's.
	for _, v := range tb.cells {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(float64(v)))
	}
	return dst
}

// Snapshot serializes the accumulated state (format above).
func (tb *table) Snapshot() ([]byte, error) {
	return tb.AppendSnapshot(make([]byte, 0, tb.SnapshotLen())), nil
}

// maxSnapshotTally bounds every deserialized counter: report tallies and
// accumulator cells are integers of magnitude at most the report count,
// and nothing beyond 2^53 could have been accumulated exactly — so larger
// (or non-integral) values can only be corruption.
const maxSnapshotTally = uint64(1) << 53

// CheckSnapshot validates a snapshot produced by an oracle with identical
// parameters and returns its report count, without allocating. Row
// counts, and their sum, are checked against maxSnapshotTally on the raw
// uint64 before any int conversion, and each row's cells against its
// count: each report moves one cell of its row by ±1, so a row's absolute
// cells sum to at most the reports it counts. It reads only the shape,
// never the counters, so it may run concurrently with Absorb.
func (s *blobShape) CheckSnapshot(buf []byte) (reports int, err error) {
	if want := s.SnapshotLen(); len(buf) != want {
		return 0, fmt.Errorf("freqoracle: snapshot length %d, want %d", len(buf), want)
	}
	hdr := buf[:len(s.hdr)]
	if !bytes.Equal(hdr, s.hdr) {
		return 0, fmt.Errorf("freqoracle: snapshot header %x does not match the oracle's %x (magic, version, shape or eps)",
			hdr, s.hdr)
	}
	counts := buf[len(s.hdr) : len(s.hdr)+8*s.rows]
	cells := buf[len(s.hdr)+8*s.rows:]
	var sum uint64
	for r := 0; r < s.rows; r++ {
		c := binary.BigEndian.Uint64(counts[8*r:])
		if c > maxSnapshotTally {
			return 0, fmt.Errorf("freqoracle: snapshot row %d count %d exceeds report-tally bound %d", r, c, maxSnapshotTally)
		}
		sum += c
		if sum > maxSnapshotTally {
			return 0, fmt.Errorf("freqoracle: snapshot total report count exceeds bound %d", maxSnapshotTally)
		}
	}
	for r := 0; r < s.rows; r++ {
		row := cells[8*r*s.t : 8*(r+1)*s.t]
		if err := checkCells(row, r*s.t, binary.BigEndian.Uint64(counts[8*r:])); err != nil {
			return 0, err
		}
	}
	return int(sum), nil
}

// CheckDirectSnapshot makes CheckSnapshot's checks of an LDSK blob against
// a DirectHistogram over domain at eps (parameters NewDirectHistogram
// accepts) without building the oracle, and returns the blob's report
// count. It allocates only the expected header.
func CheckDirectSnapshot(eps float64, domain int, blob []byte) (reports int, err error) {
	s := directShape(eps, domain)
	return s.CheckSnapshot(blob)
}

// AddSnapshot adds the counters of a snapshot CheckSnapshot accepted —
// cells, row counts and total — into the oracle's own. It cannot fail;
// buf must have passed CheckSnapshot on an oracle with identical
// parameters.
func (tb *table) AddSnapshot(buf []byte) {
	off := len(tb.hdr)
	for r := range tb.rowCounts {
		c := int(binary.BigEndian.Uint64(buf[off:]))
		tb.rowCounts[r] += c
		tb.total += c
		off += 8
	}
	addCells(tb.cells, buf[off:])
}

// Restore loads a snapshot produced by an oracle with identical
// parameters, replacing this oracle's accumulated state. On error the
// state is unchanged.
func (tb *table) Restore(buf []byte) error {
	if _, err := tb.CheckSnapshot(buf); err != nil {
		return err
	}
	tb.Reset()
	tb.AddSnapshot(buf)
	return nil
}

// checkCells checks the big-endian float64 cells of one table row, the
// first of which is cell first, recorded over reports reports: each must
// be a validTally, and their absolute values must sum to at most reports,
// since each report moves one cell by ±1. That sum bounds every single
// cell too. +0, the common cell, passes both checks on its bits alone. The
// sum stays below 2^54: it is checked after every addend, and reports and
// each addend are at most maxSnapshotTally.
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
