package freqoracle

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"ldphh/internal/blobv1"
)

// The golden-bytes tests pin the exact serialized layouts so the formats
// cannot drift silently (the way BytesPerReport once did): any byte-level
// change to the encoder breaks its version 2 constant and must ship with a
// version bump and a migration story, not slide through. The version 1
// constants are what the oracles wrote before version 2: they must still
// restore, to the state the version 2 constant encodes.

// TestSnapshotGoldenBytes pins Hashtogram "LHSK" version 2, and restores
// version 1:
//
//	v2: magic | version | rows u32 | t u32 | rowCounts []u64 | (run, zigzag value) uvarint pairs | final run
//	v1: magic | version | rows u32 | t u32 | rowCounts []u64 | acc []f64 (row-major)
func TestSnapshotGoldenBytes(t *testing.T) {
	h, err := NewHashtogram(HashtogramParams{Eps: 1, N: 100, Rows: 2, T: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-picked reports with fully predictable counters: two +1 hits on
	// (row 0, col 1) and one -1 hit on (row 1, col 3).
	for _, rep := range []HashtogramReport{
		{Row: 0, Col: 1, Bit: 1},
		{Row: 0, Col: 1, Bit: 1},
		{Row: 1, Col: 3, Bit: -1},
	} {
		if err := h.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const golden = "4c48534b02" + // "LHSK" v2
		"00000002" + "00000004" + // rows=2, t=4
		"0000000000000002" + "0000000000000001" + // rowCounts
		"0104" + // cells [0, 2, 0, 0 | 0, 0, 0, -1]: run 1, value 2;
		"0501" + // run 5, value -1;
		"00" // final run 0
	if got := hex.EncodeToString(snap); got != golden {
		t.Fatalf("LHSK layout drifted:\n got %s\nwant %s", got, golden)
	}
	const goldenV1 = "4c48534b01" + // "LHSK" v1
		"00000002" + "00000004" + // rows=2, t=4
		"0000000000000002" + "0000000000000001" + // rowCounts
		"0000000000000000" + "4000000000000000" + "0000000000000000" + "0000000000000000" + // acc row 0: [0, 2, 0, 0]
		"0000000000000000" + "0000000000000000" + "0000000000000000" + "bff0000000000000" // acc row 1: [0, 0, 0, -1]
	// Both pinned blobs restore to the identical state, which writes the
	// version 2 bytes.
	for _, blob := range []string{golden, goldenV1} {
		g, err := NewHashtogram(HashtogramParams{Eps: 1, N: 100, Rows: 2, T: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := hex.DecodeString(blob)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Restore(raw); err != nil {
			t.Fatal(err)
		}
		if g.TotalReports() != 3 {
			t.Fatalf("restored golden sketch holds %d reports, want 3", g.TotalReports())
		}
		out, err := g.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(out); got != golden {
			t.Fatalf("restored %s re-serialized as %s, want %s", blob[:10], got, golden)
		}
	}
}

// TestDirectSnapshotGoldenBytes pins DirectHistogram "LDSK" version 2, and
// restores version 1:
//
//	v2: magic | version | domain u32 | t u32 | epsBits u64 | n u64 | (run, zigzag value) uvarint pairs | final run
//	v1: magic | version | domain u32 | t u32 | epsBits u64 | n u64 | acc []f64
func TestDirectSnapshotGoldenBytes(t *testing.T) {
	d, err := NewDirectHistogram(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []DirectReport{
		{Col: 0, Bit: 1},
		{Col: 2, Bit: -1},
	} {
		if err := d.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const golden = "4c44534b02" + // "LDSK" v2
		"00000003" + "00000004" + // domain=3, padded t=4
		"3ff0000000000000" + // epsBits: Float64bits(1.0)
		"0000000000000002" + // n=2
		"0002" + // cells [1, 0, -1, 0]: run 0, value 1;
		"0101" + // run 1, value -1;
		"01" // final run 1
	if got := hex.EncodeToString(snap); got != golden {
		t.Fatalf("LDSK layout drifted:\n got %s\nwant %s", got, golden)
	}
	const goldenV1 = "4c44534b01" + // "LDSK" v1
		"00000003" + "00000004" + // domain=3, padded t=4
		"3ff0000000000000" + // epsBits: Float64bits(1.0)
		"0000000000000002" + // n=2
		"3ff0000000000000" + "0000000000000000" + "bff0000000000000" + "0000000000000000" // acc: [1, 0, -1, 0]
	for _, blob := range []string{golden, goldenV1} {
		g, err := NewDirectHistogram(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := hex.DecodeString(blob)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Restore(raw); err != nil {
			t.Fatal(err)
		}
		if g.TotalReports() != 2 {
			t.Fatalf("restored golden histogram holds %d reports, want 2", g.TotalReports())
		}
		out, err := g.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(out); got != golden {
			t.Fatalf("restored %s re-serialized as %s, want %s", blob[:10], got, golden)
		}
	}
}

// TestSnapshotV2RoundTripsAnyTable writes tables of every density, with
// values that fit one varint byte and values that do not, and with a
// width that leaves a partial chunk of cells: AppendSnapshot must write
// the same blob from an empty buffer, after a prefix, and into a buffer of
// the blob's exact size, which it must not outgrow; the blob must restore
// (as written and rewritten to version 1) to the identical cells; and
// every proper prefix of it must be refused.
func TestSnapshotV2RoundTripsAnyTable(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	for _, shape := range []blobShape{hashtogramShape(5, 64), directShape(1, 3), directShape(1, 1000)} {
		for _, density := range []float64{0, 0.01, 0.3, 0.7, 1} {
			for _, mag := range []int64{1, 63, 64, 200, 1 << 40} {
				tb := newTable(shape)
				for j := range tb.cells {
					if rng.Float64() < density {
						v := 1 + rng.Int64N(mag)
						if rng.IntN(2) == 0 {
							v = -v
						}
						tb.cells[j] = v
						tb.rowCounts[j/tb.t] += int(max(v, -v)) + rng.IntN(3)
					}
				}
				for _, c := range tb.rowCounts {
					tb.total += c
				}
				name := fmt.Sprintf("%x/density %v/magnitude %d", tb.hdr[:4], density, mag)
				snap, _ := tb.Snapshot()
				exact := tb.AppendSnapshot(make([]byte, 0, len(snap)))
				prefixed := tb.AppendSnapshot([]byte{7})
				if !bytes.Equal(exact, snap) || cap(exact) != len(snap) || !bytes.Equal(prefixed[1:], snap) {
					t.Fatalf("%s: AppendSnapshot wrote %x into an exact buffer and %x after a prefix, Snapshot %x", name, exact, prefixed, snap)
				}
				for n := range snap {
					if _, err := tb.CheckSnapshot(snap[:n]); err == nil {
						t.Fatalf("%s: the blob's first %d of %d bytes were accepted", name, n, len(snap))
					}
				}
				for _, blob := range [][]byte{snap, blobv1.Blob(snap)} {
					got := newTable(shape)
					if err := got.Restore(blob); err != nil {
						t.Fatalf("%s: version %d: %v", name, blob[4], err)
					}
					if !slices.Equal(got.cells, tb.cells) || !slices.Equal(got.rowCounts, tb.rowCounts) || got.total != tb.total {
						t.Fatalf("%s: version %d restored different counters", name, blob[4])
					}
				}
			}
		}
	}
}
