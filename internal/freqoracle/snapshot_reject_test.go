package freqoracle

// Reject-path pins for the explicit maxSnapshotTally bounds: every counter
// in a snapshot is checked against the 2^53 report-tally bound on the raw
// uint64 (or raw float64 bits) before any int conversion, so corrupted
// oversized values can never wrap or lose precision on the way into the
// int64 accumulators. The same mutations live as named seeds under
// testdata/fuzz/FuzzRestoreSnapshot/. Each report moves one cell by ±1, so
// cells whose absolute values sum beyond their oracle's (or their row's)
// report count are rejected too, even when each cell alone is in bound.
// The mutations address the fixed offsets of version 1, so each test
// corrupts the version 1 rewrite of its oracle's blob.

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"ldphh/internal/blobv1"
)

func TestHashtogramRestoreRejectsOversizedCounters(t *testing.T) {
	mk := func() *Hashtogram {
		h, err := NewHashtogram(HashtogramParams{Eps: 1, N: 100, Rows: 2, T: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	base, err := mk().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	base = blobv1.Blob(base)
	cases := []struct {
		name string
		off  int
		bits uint64
		want string
	}{
		{"rowcount beyond 2^53", 13, uint64(1)<<53 + 1, "exceeds report-tally bound"},
		{"cell beyond 2^53", 29, math.Float64bits(float64(uint64(1) << 54)), "not an integral report tally"},
		{"non-integral cell", 29, math.Float64bits(2.5), "not an integral report tally"},
		{"negative-zero cell", 29, math.Float64bits(math.Copysign(0, -1)), "not canonical"},
		{"cell above its empty row's count", 29, math.Float64bits(-7), "exceeds its report count 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := append([]byte(nil), base...)
			binary.BigEndian.PutUint64(snap[tc.off:], tc.bits)
			err := mk().Restore(snap)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want error containing %q", err, tc.want)
			}
		})
	}
	t.Run("rowcount sum beyond 2^53", func(t *testing.T) {
		snap := append([]byte(nil), base...)
		binary.BigEndian.PutUint64(snap[13:], uint64(1)<<53) // each row in bound,
		binary.BigEndian.PutUint64(snap[21:], uint64(1)<<53) // their sum is not
		err := mk().Restore(snap)
		if err == nil || !strings.Contains(err.Error(), "total report count exceeds bound") {
			t.Fatalf("Restore = %v, want total-report-count error", err)
		}
	})
	t.Run("row cells summing beyond the row's count", func(t *testing.T) {
		snap := append([]byte(nil), base...)
		binary.BigEndian.PutUint64(snap[13:], 1) // row 0 counts one report,
		for off := 29; off < 61; off += 8 {      // but holds four -1 cells
			binary.BigEndian.PutUint64(snap[off:], math.Float64bits(-1))
		}
		err := mk().Restore(snap)
		if err == nil || !strings.Contains(err.Error(), "exceeds its report count 1") {
			t.Fatalf("Restore = %v, want error containing %q", err, "exceeds its report count 1")
		}
	})
}

func TestDirectRestoreRejectsOversizedCounters(t *testing.T) {
	mk := func() *DirectHistogram {
		d, err := NewDirectHistogram(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	base, err := mk().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	base = blobv1.Blob(base)
	cases := []struct {
		name string
		off  int
		bits uint64
		want string
	}{
		{"n beyond 2^53", 21, uint64(1)<<53 + 1, "exceeds report-tally bound"},
		{"cell beyond 2^53", 29, math.Float64bits(float64(uint64(1) << 54)), "not an integral report tally"},
		{"non-integral cell", 29, math.Float64bits(1.5), "not an integral report tally"},
		{"cell above the report count", 29, math.Float64bits(5), "exceeds its report count 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := append([]byte(nil), base...)
			binary.BigEndian.PutUint64(snap[tc.off:], tc.bits)
			err := mk().Restore(snap)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want error containing %q", err, tc.want)
			}
		})
	}
	t.Run("cells summing beyond the report count", func(t *testing.T) {
		snap := append([]byte(nil), base...)
		binary.BigEndian.PutUint64(snap[21:], 1) // one report,
		for off := 29; off < 61; off += 8 {      // but four +1 cells
			binary.BigEndian.PutUint64(snap[off:], math.Float64bits(1))
		}
		err := mk().Restore(snap)
		if err == nil || !strings.Contains(err.Error(), "exceeds its report count 1") {
			t.Fatalf("Restore = %v, want error containing %q", err, "exceeds its report count 1")
		}
	})
}

// TestCheckSnapshotV2AllocFree pins that checking a version 2 blob — every
// varint, run, value and row sum — allocates nothing, in both oracles.
func TestCheckSnapshotV2AllocFree(t *testing.T) {
	h, err := NewHashtogram(HashtogramParams{Eps: 1, N: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDirectHistogram(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 2000; i++ {
		if err := h.Absorb(h.Report(key(uint64(i%37)), i, rng)); err != nil {
			t.Fatal(err)
		}
		rep, err := d.Report(uint64(i%64), rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	for name, o := range map[string]interface {
		Snapshot() ([]byte, error)
		CheckSnapshot([]byte) (int, error)
	}{"hashtogram": h, "direct": d} {
		snap, err := o.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap[4] != blobV2 {
			t.Fatalf("%s wrote a version %d blob, want 2", name, snap[4])
		}
		allocs := testing.AllocsPerRun(100, func() {
			if n, err := o.CheckSnapshot(snap); err != nil || n != 2000 {
				t.Fatalf("%s: CheckSnapshot = %d, %v", name, n, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: CheckSnapshot of a %d-byte version 2 blob made %.1f allocations, want 0", name, len(snap), allocs)
		}
	}
}
