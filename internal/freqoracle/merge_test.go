package freqoracle

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestHashtogramMerge(t *testing.T) {
	// Split the same population across two aggregators with identical
	// public randomness; the merged sketch must estimate like a single one.
	const n = 40000
	params := HashtogramParams{Eps: 1.5, N: n, Seed: 33}
	a, err := NewHashtogram(params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHashtogram(params)
	if err != nil {
		t.Fatal(err)
	}
	planted := map[uint64]int{5: 9000, 6: 4000}
	pop := buildPopulation(n, planted)
	rng := rand.New(rand.NewPCG(1, 2))
	for i, x := range pop.items {
		target := a
		if i%2 == 1 {
			target = b
		}
		// Reports must come from the same public randomness (either
		// instance works since params are identical).
		if err := target.Absorb(a.Report(x, i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	a.Finalize()
	if got := a.TotalReports(); got != n {
		t.Fatalf("merged sketch holds %d reports, want %d", got, n)
	}
	bound := a.ErrorBound(0.01)
	for k, want := range planted {
		got := a.Estimate(key(k))
		if math.Abs(got-float64(want)) > bound {
			t.Errorf("merged estimate of %d = %.0f, want %d (bound %.0f)", k, got, want, bound)
		}
	}
}

// sumRowCounts re-derives the report total the slow way; the running
// counter behind TotalReports must agree with it after every mutation.
func sumRowCounts(h *Hashtogram) int {
	n := 0
	for _, c := range h.rowCounts {
		n += c
	}
	return n
}

func TestHashtogramTotalReportsRunningCounter(t *testing.T) {
	params := HashtogramParams{Eps: 1, N: 4000, Seed: 7}
	h, err := NewHashtogram(params)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, sk *Hashtogram) {
		t.Helper()
		if got, want := sk.TotalReports(), sumRowCounts(sk); got != want {
			t.Fatalf("%s: TotalReports = %d, rowCounts sum to %d", stage, got, want)
		}
	}
	check("empty", h)
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 500; i++ {
		if err := h.Absorb(h.Report(key(uint64(i%17)), i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	check("after absorb", h)

	// Shards start from zero and fold back through Merge.
	shard := h.NewAccumulator()
	check("fresh accumulator", shard)
	for i := 500; i < 800; i++ {
		if err := shard.Absorb(h.Report(key(uint64(i%17)), i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	check("absorbed shard", shard)
	if err := h.Merge(shard); err != nil {
		t.Fatal(err)
	}
	check("after merge", h)
	if got := h.TotalReports(); got != 800 {
		t.Fatalf("merged total = %d, want 800", got)
	}

	// Restore rebuilds the counter from the snapshot's row counts — both
	// into a dirty sketch (stale counter must be overwritten) and a fresh one.
	snap, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := NewHashtogram(params)
	if err != nil {
		t.Fatal(err)
	}
	if err := dirty.Absorb(h.Report(key(3), 0, rng)); err != nil {
		t.Fatal(err)
	}
	if err := dirty.Restore(snap); err != nil {
		t.Fatal(err)
	}
	check("after restore", dirty)
	if got := dirty.TotalReports(); got != 800 {
		t.Fatalf("restored total = %d, want 800", got)
	}
}

func TestHashtogramMergeValidation(t *testing.T) {
	a, _ := NewHashtogram(HashtogramParams{Eps: 1, N: 100, Seed: 1})
	b, _ := NewHashtogram(HashtogramParams{Eps: 1, N: 100, Seed: 2})
	if err := a.Merge(b); err == nil {
		t.Error("merge of different seeds accepted")
	}
	c, _ := NewHashtogram(HashtogramParams{Eps: 1, N: 100, Seed: 1})
	c.Finalize()
	d, _ := NewHashtogram(HashtogramParams{Eps: 1, N: 100, Seed: 1})
	if err := c.Merge(d); err != nil {
		t.Errorf("merge after finalize: %v", err)
	}
	if err := d.Merge(c); err != nil {
		t.Errorf("merge of finalized source: %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	const n = 20000
	params := HashtogramParams{Eps: 1.5, N: n, Seed: 55}
	a, err := NewHashtogram(params)
	if err != nil {
		t.Fatal(err)
	}
	planted := map[uint64]int{3: 5000}
	pop := buildPopulation(n, planted)
	rng := rand.New(rand.NewPCG(6, 7))

	// Absorb half, snapshot, "crash", restore into a fresh instance built
	// from the same params, absorb the rest.
	reports := make([]HashtogramReport, n)
	for i, x := range pop.items {
		reports[i] = a.Report(x, i, rng)
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
	b, err := NewHashtogram(params)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := n / 2; i < n; i++ {
		if err := b.Absorb(reports[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Reference: the uninterrupted run.
	c, err := NewHashtogram(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if err := c.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	b.Finalize()
	c.Finalize()
	if b.TotalReports() != n {
		t.Fatalf("restored sketch holds %d reports", b.TotalReports())
	}
	if got, want := b.Estimate(key(3)), c.Estimate(key(3)); got != want {
		t.Fatalf("restored estimate %f != uninterrupted %f", got, want)
	}
}

func TestSnapshotValidation(t *testing.T) {
	a, _ := NewHashtogram(HashtogramParams{Eps: 1, N: 100, Seed: 1})
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Wrong-shape sketch rejects.
	b, _ := NewHashtogram(HashtogramParams{Eps: 1, N: 100, T: 1024, Seed: 1})
	if err := b.Restore(snap); err == nil {
		t.Error("shape mismatch accepted")
	}
	// Corrupt magic rejects.
	bad := append([]byte(nil), snap...)
	bad[0] = 'X'
	c, _ := NewHashtogram(HashtogramParams{Eps: 1, N: 100, Seed: 1})
	if err := c.Restore(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated rejects.
	if err := c.Restore(snap[:10]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	// Finalize retires nothing: both directions still work.
	a.Finalize()
	if _, err := a.Snapshot(); err != nil {
		t.Errorf("snapshot after finalize: %v", err)
	}
	if err := a.Restore(snap); err != nil {
		t.Errorf("restore after finalize: %v", err)
	}
}

func TestEstimateWithSpread(t *testing.T) {
	const n = 30000
	h, err := NewHashtogram(HashtogramParams{Eps: 1.5, N: n, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	planted := map[uint64]int{9: 8000}
	pop := buildPopulation(n, planted)
	rng := rand.New(rand.NewPCG(4, 5))
	for i, x := range pop.items {
		if err := h.Absorb(h.Report(x, i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	h.Finalize()
	est, iqr := h.EstimateWithSpread(key(9))
	if est != h.Estimate(key(9)) {
		t.Error("EstimateWithSpread median disagrees with Estimate")
	}
	if iqr <= 0 {
		t.Error("IQR should be positive under privacy noise")
	}
	// The IQR should be of the same order as the per-row noise scale, not
	// absurdly larger than the estimate's distance from truth.
	if iqr > 20000 {
		t.Errorf("IQR implausibly wide: %.0f", iqr)
	}
}

func TestDirectHistogramMerge(t *testing.T) {
	const domain = 64
	a, err := NewDirectHistogram(1, domain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDirectHistogram(1, domain)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	const n = 30000
	for i := 0; i < n; i++ {
		target := a
		if i%3 == 0 {
			target = b
		}
		rep, err := target.Report(uint64(i%4), rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := target.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	a.Finalize()
	if a.TotalReports() != n {
		t.Fatalf("merged reports %d", a.TotalReports())
	}
	bound := a.ErrorBound(n, 0.001)
	for v := uint64(0); v < 4; v++ {
		got := a.Estimate(v)
		if math.Abs(got-float64(n)/4) > bound {
			t.Errorf("value %d: merged estimate %.0f, want %d", v, got, n/4)
		}
	}
	// Validation.
	c, _ := NewDirectHistogram(1, 32)
	if err := a.Merge(c); err == nil {
		t.Error("merge of different domains accepted (and after finalize)")
	}
	d1, _ := NewDirectHistogram(1, domain)
	d2, _ := NewDirectHistogram(2, domain)
	if err := d1.Merge(d2); err == nil {
		t.Error("merge of different epsilons accepted")
	}
}
