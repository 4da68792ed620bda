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
// versioned binary blobs so an aggregation server can checkpoint
// mid-collection, resume after a restart, or ship its state to a parent
// aggregator that adds it to its own. The public randomness is NOT
// serialized — it is reproducible from the construction parameters — so a
// blob is only loadable into an oracle built from identical parameters;
// CheckSnapshot validates the embedded shape against the receiver and
// rejects mismatches. The blobs are the whole snapshot body of the
// hashtogram, directhistogram and smalldomain kinds, and nest inside the
// PES and interactive bodies.
//
// Both oracles are one table (table.go), so there is one codec, written
// on the table and promoted to Hashtogram and DirectHistogram: a blob is
// the header its oracle's parameters fix, then the table's row counts,
// then its cells. A DirectHistogram's one row count is its report count n.
// The fixed-width fields are big endian:
//
//	LHSK header: magic "LHSK" | version u8 | rows u32 | t u32
//	LDSK header: magic "LDSK" | version u8 | domain u32 | t u32 | epsBits u64
//	blob:        header | rowCounts []u64 | cells
//
// The writer emits version 2, pinned by TestSnapshotGoldenBytes and
// TestDirectSnapshotGoldenBytes. Its cells are sparse: each nonzero cell,
// in row-major order, is a pair (zero run, value) of encoding/binary
// uvarints, the run counting the zero cells since the previous nonzero one
// (runs may cross rows) and the value zigzag-coded as (v<<1)^(v>>63). One
// final zero run reaches the table's end. Every report moves one cell by
// ±1, so a blob grows with the cells its reports touch, not with the
// table: an empty blob is its header, its row counts and one byte.
//
// Version 1, the format before it, is dense: rows × t cells as float64
// bits, +0 for an empty cell. Both load the same way, in Restore and in
// MergeSnapshot alike, dispatching on the version byte, so every
// checkpoint written in version 1 still recovers and a root merges blobs
// from leaves that still write version 1. Nothing in the module writes
// version 1 any more; tests rewrite blobs to it with internal/blobv1.
//
// Both formats are canonical, so one state has one encoding in each: the
// header is fixed by the receiver's shape; a v1 cell is an integral,
// finite float64 with no -0; a v2 varint is minimal, a v2 value is never
// zero, no run passes the table's end and no byte follows the final run.
// A blob cut at any byte is refused.
//
// Loading is split into two primitives, and every load of a blob, inside
// any body, goes through both. CheckSnapshot makes every check (header,
// counter ranges, the canonical rules, and the cells of each row summing
// in absolute value to at most the row's report count) in place, without
// allocating and without touching the receiver's counters; AddSnapshot
// then adds a checked blob's counters straight from its bytes and cannot
// fail. Restore is CheckSnapshot, then Reset and AddSnapshot, so a failed
// Restore leaves the oracle exactly as it was. The header is fixed by the
// receiver's shape, so it is checked as byte comparisons against the
// receiver's own. A blob's shape is a value (blobShape), so
// CheckDirectSnapshot checks an LDSK blob against parameters without
// building an oracle.

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
// counts, then the cells of rows × t.
type blobShape struct {
	hdr     []byte // version 2 LHSK or LDSK header; a blob's must equal it but for the version byte
	rows, t int
}

// Blob format versions; the version byte follows the 4-byte magic.
const (
	blobV1 = 1 // dense float64 cells
	blobV2 = 2 // sparse (zero run, zigzag value) uvarint pairs
)

// hashtogramShape is the LHSK shape of an R-row sketch of width t; its
// header is magic, version, rows, t.
func hashtogramShape(rows, t int) blobShape {
	hdr := append(append(make([]byte, 0, 4+1+4+4), "LHSK"...), blobV2)
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
	hdr := append(append(make([]byte, 0, 4+1+4+4+8), "LDSK"...), blobV2)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(domain))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(t))
	hdr = binary.BigEndian.AppendUint64(hdr, math.Float64bits(eps))
	return blobShape{hdr: hdr, rows: 1, t: t}
}

// v1Len returns the exact length of a version 1 blob of this shape.
func (s *blobShape) v1Len() int { return len(s.hdr) + 8*s.rows + 8*s.rows*s.t }

// AppendSnapshot appends the accumulated state as a version 2 blob
// (format above) to dst.
func (tb *table) AppendSnapshot(dst []byte) []byte {
	dst = append(dst, tb.hdr...)
	for _, c := range tb.rowCounts {
		dst = binary.BigEndian.AppendUint64(dst, uint64(c))
	}
	last := 0
	for j := 0; j < len(tb.cells); j += chunk {
		c := tb.cells[j:min(j+chunk, len(tb.cells))]
		if !zeroChunk(c) {
			dst, last = appendPairs(dst, c, j, last)
		}
	}
	return binary.AppendUvarint(dst, uint64(len(tb.cells)-last))
}

// The encoder walks the cells in chunks of 8, skipping the all-zero ones
// that fill a sparse table whole, and handles the cells of the rest with
// conditional moves rather than a branch on each value where it can: a
// table can be half zeros in no pattern at all, where a branch per cell
// mispredicts.
const chunk = 8

// zeroChunk reports whether c is a whole chunk of zero cells.
func zeroChunk(c []int64) bool {
	return len(c) == chunk && c[0]|c[1]|c[2]|c[3]|c[4]|c[5]|c[6]|c[7] == 0
}

// appendPairs appends the pairs of the nonzero cells of c, the first of
// which is cell at, the last nonzero cell before it being cell last-1,
// and returns the new last. When every run and value in the chunk fits a
// one-byte varint and dst has 16 bytes to spare, every cell's two bytes
// go into that spare capacity at a cursor that moves past a nonzero
// cell's bytes only, so no branch depends on a cell's value.
func appendPairs(dst []byte, c []int64, at, last int) ([]byte, int) {
	var small uint64 // below 0x80 iff every value is in [-64, 63]
	for _, v := range c {
		small |= uint64(v + 64)
	}
	if p := len(dst); small < 0x80 && at+len(c)-last <= 0x80 && cap(dst)-p >= 2*chunk {
		w := dst[p : p+2*chunk]
		k := 0
		for i, v := range c {
			w[k&(2*chunk-2)] = byte(at + i - last)
			w[k&(2*chunk-2)+1] = byte(zigzag(v))
			if v != 0 {
				k += 2
				last = at + i + 1
			}
		}
		return dst[:p+k], last
	}
	for i, v := range c {
		if v != 0 {
			dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(at+i-last)), zigzag(v))
			last = at + i + 1
		}
	}
	return dst, last
}

// zigzag maps a signed cell onto the unsigned varint value (v<<1)^(v>>63),
// so small tallies of either sign take one byte.
func zigzag(v int64) uint64 { return uint64(v<<1 ^ v>>63) }

// Snapshot serializes the accumulated state (format above).
func (tb *table) Snapshot() ([]byte, error) { return tb.AppendSnapshot(nil), nil }

// maxSnapshotTally bounds every deserialized counter: report tallies and
// accumulator cells are integers of magnitude at most the report count,
// and nothing beyond 2^53 could have been accumulated exactly — so larger
// (or non-integral) values can only be corruption.
const maxSnapshotTally = uint64(1) << 53

// CheckSnapshot validates a blob of either version produced by an oracle
// with identical parameters and returns its report count, without
// allocating. Row counts, and their sum, are checked against
// maxSnapshotTally on the raw uint64 before any int conversion, and each
// row's cells against its count: each report moves one cell of its row by
// ±1, so a row's absolute cells sum to at most the reports it counts. A
// blob whose version byte is 1, or that is too short to hold one, is
// checked as version 1, any other as version 2. It reads only the shape,
// never the counters, so it may run concurrently with Absorb.
func (s *blobShape) CheckSnapshot(buf []byte) (reports int, err error) {
	v1 := len(buf) <= 4 || buf[4] == blobV1
	head := len(s.hdr) + 8*s.rows
	switch {
	case v1 && len(buf) != s.v1Len():
		return 0, fmt.Errorf("freqoracle: snapshot length %d, want %d", len(buf), s.v1Len())
	case !v1 && len(buf) < head:
		return 0, fmt.Errorf("freqoracle: snapshot length %d is shorter than its %d-byte header and row counts", len(buf), head)
	}
	hdr := buf[:len(s.hdr)]
	if !bytes.Equal(hdr[:4], s.hdr[:4]) || (!v1 && hdr[4] != blobV2) || !bytes.Equal(hdr[5:], s.hdr[5:]) {
		want := append([]byte(nil), s.hdr...)
		if v1 {
			want[4] = blobV1
		}
		return 0, fmt.Errorf("freqoracle: snapshot header %x does not match the oracle's %x (magic, version, shape or eps)",
			hdr, want)
	}
	counts := buf[len(s.hdr):head]
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
	if !v1 {
		if err := s.checkPairs(buf[head:], counts); err != nil {
			return 0, err
		}
		return int(sum), nil
	}
	cells := buf[head:]
	for r := 0; r < s.rows; r++ {
		row := cells[8*r*s.t : 8*(r+1)*s.t]
		if err := checkCells(row, r*s.t, binary.BigEndian.Uint64(counts[8*r:])); err != nil {
			return 0, err
		}
	}
	return int(sum), nil
}

// checkPairs checks the cells of a version 2 blob, p, against its row
// counts section: every varint minimal, every value nonzero, no run past
// the table's end, the final run reaching it with no byte after, and each
// row's absolute values summing to at most its count. That sum bounds
// every value by maxSnapshotTally too, and stays below 2^64: it is checked
// after every addend, and each addend is at most 2^63.
func (s *blobShape) checkPairs(p, counts []byte) error {
	cells := s.rows * s.t
	pos, off, rowEnd := 0, 0, 0
	var sum, reports uint64
	for {
		// A run or value below 0x80 is one byte, read inline: uvarint is
		// too large to inline, and a dense table is almost all such pairs.
		run, n := uint64(0), 1
		if off < len(p) && p[off] < 0x80 {
			run = uint64(p[off])
		} else if run, n = uvarint(p[off:]); n <= 0 {
			return pairErr(n, off, "zero run")
		}
		off += n
		if run > uint64(cells-pos) {
			return fmt.Errorf("freqoracle: snapshot zero run of %d cells from cell %d passes the table's end at cell %d", run, pos, cells)
		}
		if pos += int(run); pos == cells {
			if off != len(p) {
				return fmt.Errorf("freqoracle: snapshot has %d bytes after its final zero run", len(p)-off)
			}
			return nil
		}
		zz, n := uint64(0), 1
		if off < len(p) && p[off] < 0x80 {
			zz = uint64(p[off])
		} else if zz, n = uvarint(p[off:]); n <= 0 {
			return pairErr(n, off, "value")
		}
		off += n
		if zz == 0 {
			return fmt.Errorf("freqoracle: snapshot cell %d is a zero-valued entry", pos)
		}
		if pos >= rowEnd {
			r := pos / s.t
			rowEnd, reports, sum = (r+1)*s.t, binary.BigEndian.Uint64(counts[8*r:]), 0
		}
		if sum += zz>>1 + zz&1; sum > reports {
			return fmt.Errorf("freqoracle: snapshot cell %d lifts the absolute cell sum to %d, which exceeds its report count %d",
				pos, sum, reports)
		}
		pos++
	}
}

// pairErr is checkPairs' error for a varint uvarint could not read at
// byte off of the cells: n == 0 when the bytes end first, n < 0 when the
// encoding is not minimal or overflows.
func pairErr(n, off int, what string) error {
	if n == 0 {
		return fmt.Errorf("freqoracle: snapshot ends at cell byte %d, before its final zero run", off)
	}
	return fmt.Errorf("freqoracle: snapshot %s at cell byte %d is not a minimal 64-bit uvarint", what, off)
}

// uvarint reads a minimal encoding/binary uvarint from the front of p and
// its length n: n == 0 if p ends first, n < 0 if the encoding overflows
// 64 bits or is not minimal (binary.Uvarint accepts the trailing zero
// group of 80 00, which would give a value a second encoding). Its callers
// read a one-byte uvarint inline and call it for the rest.
func uvarint(p []byte) (uint64, int) {
	x, n := binary.Uvarint(p)
	if n > 1 && p[n-1] == 0 {
		return 0, -n
	}
	return x, n
}

// CheckDirectSnapshot makes CheckSnapshot's checks of an LDSK blob against
// a DirectHistogram over domain at eps (parameters NewDirectHistogram
// accepts) without building the oracle, and returns the blob's report
// count. It allocates only the expected header.
func CheckDirectSnapshot(eps float64, domain int, blob []byte) (reports int, err error) {
	s := directShape(eps, domain)
	return s.CheckSnapshot(blob)
}

// AddSnapshot adds the counters of a blob CheckSnapshot accepted — cells,
// row counts and total — into the oracle's own. It cannot fail; buf must
// have passed CheckSnapshot on an oracle with identical parameters.
func (tb *table) AddSnapshot(buf []byte) {
	off := len(tb.hdr)
	for r := range tb.rowCounts {
		c := int(binary.BigEndian.Uint64(buf[off:]))
		tb.rowCounts[r] += c
		tb.total += c
		off += 8
	}
	if buf[4] == blobV1 {
		addCells(tb.cells, buf[off:])
	} else {
		addPairs(tb.cells, buf[off:])
	}
}

// Restore loads a blob produced by an oracle with identical parameters,
// replacing this oracle's accumulated state. On error the state is
// unchanged.
func (tb *table) Restore(buf []byte) error {
	if _, err := tb.CheckSnapshot(buf); err != nil {
		return err
	}
	tb.Reset()
	tb.AddSnapshot(buf)
	return nil
}

// checkCells checks the big-endian float64 cells of one version 1 table
// row, the first of which is cell first, recorded over reports reports:
// each must be a validTally, and their absolute values must sum to at most
// reports, since each report moves one cell by ±1. That sum bounds every
// single cell too. +0, the common cell, passes both checks on its bits
// alone. The sum stays below 2^54: it is checked after every addend, and
// reports and each addend are at most maxSnapshotTally.
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

// addPairs adds the checked version 2 cells p into acc: it jumps each
// zero run and adds each unzigzagged value, so its cost follows the
// nonzero cells, not the table. Like checkPairs, it reads one-byte runs
// and values inline.
func addPairs(acc []int64, p []byte) {
	pos := 0
	for {
		run, n := uint64(p[0]), 1
		if run >= 0x80 {
			run, n = uvarint(p)
		}
		p = p[n:]
		if pos += int(run); pos == len(acc) {
			return
		}
		zz, n := uint64(p[0]), 1
		if zz >= 0x80 {
			zz, n = uvarint(p)
		}
		p = p[n:]
		acc[pos] += int64(zz>>1) ^ -int64(zz&1)
		pos++
	}
}

// validTally accepts exactly the float64 values a version 1 cell can
// hold: finite, integral, magnitude at most maxSnapshotTally. Every
// accepted value converts to int64 and back to the identical float64 bits,
// which keeps version 1 canonical.
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
