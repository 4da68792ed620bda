package freqoracle

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"ldphh/internal/blobv1"
)

// The split-ingest-snapshot-merge equivalence property, oracle layer: for a
// fixed report stream, splitting it across k leaf aggregators, serializing
// each leaf with Snapshot, rehydrating the bytes with Restore and folding
// everything into one root with Merge must reproduce the sequential
// single-aggregator state bit for bit — identical counters, so identical
// estimates for every query. Counters are exact small integers in float64,
// so no rounding can leak in from the split.

func TestHashtogramSnapshotMergeEquivalence(t *testing.T) {
	const n = 20000
	params := HashtogramParams{Eps: 1.5, N: n, Seed: 77}
	ref, err := NewHashtogram(params)
	if err != nil {
		t.Fatal(err)
	}
	pop := buildPopulation(n, map[uint64]int{1: 5000, 2: 2500})
	rng := rand.New(rand.NewPCG(8, 9))
	reports := make([]HashtogramReport, n)
	for i, x := range pop.items {
		reports[i] = ref.Report(x, i, rng)
	}
	for _, rep := range reports {
		if err := ref.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	ref.Finalize()

	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("leaves_%d", k), func(t *testing.T) {
			leaves := make([]*Hashtogram, k)
			for l := range leaves {
				var err error
				if leaves[l], err = NewHashtogram(params); err != nil {
					t.Fatal(err)
				}
			}
			for i, rep := range reports {
				if err := leaves[i%k].Absorb(rep); err != nil {
					t.Fatal(err)
				}
			}
			root, err := NewHashtogram(params)
			if err != nil {
				t.Fatal(err)
			}
			for _, leaf := range leaves {
				snap, err := leaf.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				child, err := NewHashtogram(params)
				if err != nil {
					t.Fatal(err)
				}
				if err := child.Restore(snap); err != nil {
					t.Fatal(err)
				}
				if err := root.Merge(child); err != nil {
					t.Fatal(err)
				}
			}
			root.Finalize()
			if root.TotalReports() != n {
				t.Fatalf("root holds %d reports, want %d", root.TotalReports(), n)
			}
			for _, q := range []uint64{1, 2, 3, 424242} {
				got, want := root.Estimate(key(q)), ref.Estimate(key(q))
				if got != want {
					t.Fatalf("query %d: merged estimate %v != sequential %v", q, got, want)
				}
			}
		})
	}
}

func TestDirectHistogramSnapshotMergeEquivalence(t *testing.T) {
	const domain = 48
	const n = 20000
	ref, err := NewDirectHistogram(1.2, domain)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(10, 11))
	reports := make([]DirectReport, n)
	for i := range reports {
		rep, err := ref.Report(uint64(i%7), rng)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = rep
	}
	for _, rep := range reports {
		if err := ref.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	ref.Finalize()

	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("leaves_%d", k), func(t *testing.T) {
			root, err := NewDirectHistogram(1.2, domain)
			if err != nil {
				t.Fatal(err)
			}
			for l := 0; l < k; l++ {
				leaf, err := NewDirectHistogram(1.2, domain)
				if err != nil {
					t.Fatal(err)
				}
				for i := l; i < n; i += k {
					if err := leaf.Absorb(reports[i]); err != nil {
						t.Fatal(err)
					}
				}
				snap, err := leaf.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				child, err := NewDirectHistogram(1.2, domain)
				if err != nil {
					t.Fatal(err)
				}
				if err := child.Restore(snap); err != nil {
					t.Fatal(err)
				}
				if err := root.Merge(child); err != nil {
					t.Fatal(err)
				}
			}
			root.Finalize()
			if root.TotalReports() != n {
				t.Fatalf("root holds %d reports, want %d", root.TotalReports(), n)
			}
			for v := uint64(0); v < domain; v++ {
				if got, want := root.Estimate(v), ref.Estimate(v); got != want {
					t.Fatalf("value %d: merged estimate %v != sequential %v", v, got, want)
				}
			}
		})
	}
}

// TestRefinalizeEquivalence pins Finalize as a repeatable view build: an
// oracle finalized part-way through a stream keeps absorbing and merging,
// answers from that view until it is finalized again, and its second
// Finalize gives estimates bit-identical to an oracle that saw the whole
// stream and was finalized once. A HistogramView taken before the second
// Finalize never changes.
func TestRefinalizeEquivalence(t *testing.T) {
	t.Run("hashtogram", func(t *testing.T) {
		// Five reports leave most of the 24 rows empty at the first
		// Finalize, so answering from the view means skipping rows the live
		// counters have since filled.
		const n, first = 4000, 5
		params := HashtogramParams{Eps: 2, N: n, Seed: 21}
		fresh := func() *Hashtogram {
			h, err := NewHashtogram(params)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		absorb := func(h *Hashtogram, reports []HashtogramReport) *Hashtogram {
			for _, rep := range reports {
				if err := h.Absorb(rep); err != nil {
					t.Fatal(err)
				}
			}
			return h
		}
		same := func(stage string, got *Hashtogram, reports []HashtogramReport) {
			t.Helper()
			want := absorb(fresh(), reports)
			want.Finalize()
			for _, q := range [][]byte{key(1), key(2), key(1 << 41)} {
				ge, gs := got.EstimateWithSpread(q)
				we, ws := want.EstimateWithSpread(q)
				if math.Float64bits(got.Estimate(q)) != math.Float64bits(we) ||
					math.Float64bits(ge) != math.Float64bits(we) || math.Float64bits(gs) != math.Float64bits(ws) {
					t.Fatalf("%s: query %x = (%v, %v), want (%v, %v)", stage, q, ge, gs, we, ws)
				}
			}
		}
		live := fresh()
		rng := rand.New(rand.NewPCG(21, 22))
		reports := make([]HashtogramReport, n)
		for i, x := range buildPopulation(n, map[uint64]int{1: 900}).items {
			reports[i] = live.Report(x, i, rng)
		}

		absorb(live, reports[:first]).Finalize()
		absorb(live, reports[first:n/2])
		if err := live.Merge(absorb(live.NewAccumulator(), reports[n/2:])); err != nil {
			t.Fatal(err)
		}
		same("before the second Finalize", live, reports[:first])
		live.Finalize()
		same("after the second Finalize", live, reports)
	})

	t.Run("direct", func(t *testing.T) {
		const domain, n = 48, 6000
		fresh := func() *DirectHistogram {
			d, err := NewDirectHistogram(1.2, domain)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		absorb := func(d *DirectHistogram, reports []DirectReport) *DirectHistogram {
			for _, rep := range reports {
				if err := d.Absorb(rep); err != nil {
					t.Fatal(err)
				}
			}
			return d
		}
		same := func(stage string, got *DirectHistogram, reports []DirectReport) {
			t.Helper()
			want := absorb(fresh(), reports)
			want.Finalize()
			for v := uint64(0); v < domain; v++ {
				if g, w := got.Estimate(v), want.Estimate(v); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: value %d = %v, want %v", stage, v, g, w)
				}
			}
		}
		live := fresh()
		rng := rand.New(rand.NewPCG(23, 24))
		reports := make([]DirectReport, n)
		for i := range reports {
			rep, err := live.Report(uint64(i%7), rng)
			if err != nil {
				t.Fatal(err)
			}
			reports[i] = rep
		}

		absorb(live, reports[:n/2]).Finalize()
		view := live.HistogramView()
		saved := append([]float64(nil), view...)
		absorb(live, reports[n/2:3*n/4])
		if err := live.Merge(absorb(live.NewAccumulator(), reports[3*n/4:])); err != nil {
			t.Fatal(err)
		}
		same("before the second Finalize", live, reports[:n/2])
		live.Finalize()
		same("after the second Finalize", live, reports)
		for i, v := range view {
			if math.Float64bits(v) != math.Float64bits(saved[i]) {
				t.Fatalf("earlier HistogramView cell %d changed from %v to %v", i, saved[i], v)
			}
		}
	})
}

func TestDirectHistogramSnapshotRestoreResume(t *testing.T) {
	// Checkpoint/resume: absorb half, snapshot, restore into a fresh
	// instance, absorb the rest; identical to the uninterrupted run.
	const domain = 10
	const n = 5000
	a, err := NewDirectHistogram(2, domain)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(12, 13))
	reports := make([]DirectReport, n)
	for i := range reports {
		rep, err := a.Report(uint64(i%domain), rng)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = rep
	}
	for i := 0; i < n/2; i++ {
		if err := a.Absorb(reports[i]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDirectHistogram(2, domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	c, err := NewDirectHistogram(2, domain)
	if err != nil {
		t.Fatal(err)
	}
	for i := n / 2; i < n; i++ {
		if err := b.Absorb(reports[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, rep := range reports {
		if err := c.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	b.Finalize()
	c.Finalize()
	if b.TotalReports() != n {
		t.Fatalf("restored histogram holds %d reports", b.TotalReports())
	}
	for v := uint64(0); v < domain; v++ {
		if got, want := b.Estimate(v), c.Estimate(v); got != want {
			t.Fatalf("value %d: resumed estimate %v != uninterrupted %v", v, got, want)
		}
	}
}

// TestDirectSnapshotValidation corrupts the version 1 rewrite of an empty
// histogram's blob, whose fixed offsets these mutations address.
func TestDirectSnapshotValidation(t *testing.T) {
	d, err := NewDirectHistogram(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap = blobv1.Blob(snap)
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		target func() *DirectHistogram
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }, nil},
		{"oversize", func(b []byte) []byte { return append(b, 0) }, nil},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, nil},
		{"bad version", func(b []byte) []byte { b[4] = 9; return b }, nil},
		{"shape mismatch", func(b []byte) []byte { return b }, func() *DirectHistogram {
			o, _ := NewDirectHistogram(1, 9)
			return o
		}},
		{"eps mismatch", func(b []byte) []byte { return b }, func() *DirectHistogram {
			o, _ := NewDirectHistogram(2, 8)
			return o
		}},
		{"negative count", func(b []byte) []byte {
			b[21] = 0xff
			return b
		}, nil},
		{"NaN payload", func(b []byte) []byte {
			copy(b[29:], []byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
			return b
		}, nil},
		{"Inf payload", func(b []byte) []byte {
			copy(b[29:], []byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0})
			return b
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target := d
			if tc.target != nil {
				target = tc.target()
			}
			buf := tc.mutate(append([]byte(nil), snap...))
			if err := target.Restore(buf); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
			// Atomicity: the failed restore left the target untouched.
			if target.TotalReports() != 0 {
				t.Errorf("%s mutated state on failure", tc.name)
			}
		})
	}
	// Finalize retires nothing: both directions still work.
	d.Finalize()
	if _, err := d.Snapshot(); err != nil {
		t.Errorf("snapshot after finalize: %v", err)
	}
	if err := d.Restore(snap); err != nil {
		t.Errorf("restore after finalize: %v", err)
	}
}

// TestHashtogramRestoreRejectsCorruptCounters corrupts version 1 rewrites
// of the sketches' blobs, whose fixed offsets these mutations address.
func TestHashtogramRestoreRejectsCorruptCounters(t *testing.T) {
	params := HashtogramParams{Eps: 1, N: 100, Rows: 2, T: 4, Seed: 1}
	h, err := NewHashtogram(params)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap = blobv1.Blob(snap)
	fresh := func() *Hashtogram {
		g, err := NewHashtogram(params)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// Negative rowCount: top bit of the first u64 row counter.
	neg := append([]byte(nil), snap...)
	neg[13] = 0x80
	if err := fresh().Restore(neg); err == nil {
		t.Error("negative rowCount accepted")
	}
	// NaN accumulator cell.
	nan := append([]byte(nil), snap...)
	copy(nan[13+8*2:], []byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
	if err := fresh().Restore(nan); err == nil {
		t.Error("NaN accumulator accepted")
	}
	// -Inf accumulator cell.
	inf := append([]byte(nil), snap...)
	copy(inf[13+8*2:], []byte{0xff, 0xf0, 0, 0, 0, 0, 0, 0})
	if err := fresh().Restore(inf); err == nil {
		t.Error("-Inf accumulator accepted")
	}
	// Atomicity: a corrupt tail must not leave a partially-written prefix.
	// Give the target a nonzero state first, then feed it a snapshot whose
	// final accumulator cell is NaN; every counter must keep its old value.
	target := fresh()
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10; i++ {
		if err := target.Absorb(target.Report(key(1), i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := target.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tail := append([]byte(nil), blobv1.Blob(before)...)
	copy(tail[len(tail)-8:], []byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
	if err := target.Restore(tail); err == nil {
		t.Fatal("NaN tail accepted")
	}
	after, err := target.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("failed restore mutated sketch state")
	}
}
