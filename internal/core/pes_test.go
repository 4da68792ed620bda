package core

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"ldphh/internal/freqoracle"
	"ldphh/internal/workload"
)

// testParams is a laptop-scale configuration: |X| = 2^32, n = 60k, ε = 4.
// MinRecoverableFrequency ≈ 7.4k (12.3% of n), so items planted at >= 13%
// clear it.
func testParams(n int, seed uint64) Params {
	return Params{
		Eps:       4,
		N:         n,
		ItemBytes: 4,
		Y:         128,
		Seed:      seed,
	}
}

func runProtocol(t *testing.T, p Params, ds *workload.Dataset, reportSeed uint64) []Estimate {
	t.Helper()
	pr, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(reportSeed, reportSeed^0xabcdef))
	for i, x := range ds.Items {
		rep, err := pr.Report(x, i, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	est, err := pr.Identify()
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func findEstimate(est []Estimate, item []byte) (float64, bool) {
	for _, e := range est {
		if bytes.Equal(e.Item, item) {
			return e.Count, true
		}
	}
	return 0, false
}

func TestPESRecoversPlantedHeavyHitters(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end protocol run")
	}
	const n = 60000
	p := testParams(n, 1001)
	dom := workload.Domain{ItemBytes: 4}
	ds, err := workload.Planted(dom, n, []float64{0.20, 0.16, 0.13}, rand.New(rand.NewPCG(7, 8)))
	if err != nil {
		t.Fatal(err)
	}
	est := runProtocol(t, p, ds, 42)

	// Frequency tolerance from the confirmation oracle at union-bounded beta.
	pr, _ := New(p)
	tol := 2.0 * pr.conf.ErrorBound(0.001)
	for i := 1; i <= 3; i++ {
		item := dom.Item(uint64(i))
		got, found := findEstimate(est, item)
		if !found {
			t.Errorf("planted item %d (count %d) not identified", i, ds.Count(item))
			continue
		}
		if math.Abs(got-float64(ds.Count(item))) > tol {
			t.Errorf("item %d: estimate %.0f, truth %d (tol %.0f)", i, got, ds.Count(item), tol)
		}
	}
	// Output must be sorted by decreasing count.
	for i := 1; i < len(est); i++ {
		if est[i].Count > est[i-1].Count {
			t.Fatal("output not sorted by decreasing count")
		}
	}
	// List size must stay near O(candidates), not blow up to the domain.
	if len(est) > p.ItemBytes*8*int(4*8*float64(p.ItemBytes)) {
		t.Errorf("output list suspiciously large: %d", len(est))
	}
}

func TestPESDeterministicGivenSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end protocol run")
	}
	const n = 30000
	dom := workload.Domain{ItemBytes: 4}
	ds, err := workload.Planted(dom, n, []float64{0.25, 0.18}, rand.New(rand.NewPCG(9, 9)))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Eps: 4, N: n, ItemBytes: 4, Y: 64, Seed: 55}
	a := runProtocol(t, p, ds, 77)
	b := runProtocol(t, p, ds, 77)
	if _, found := findEstimate(a, dom.Item(1)); !found {
		t.Error("heaviest planted item not identified in the Y=64 regime")
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic output size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Item, b[i].Item) || a[i].Count != b[i].Count {
			t.Fatal("non-deterministic output")
		}
	}
}

func TestPESFrequencyOracleView(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end protocol run")
	}
	const n = 30000
	dom := workload.Domain{ItemBytes: 4}
	ds, err := workload.Planted(dom, n, []float64{0.3}, rand.New(rand.NewPCG(3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := New(Params{Eps: 4, N: n, ItemBytes: 4, Y: 64, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	for i, x := range ds.Items {
		rep, err := pr.Report(x, i, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pr.Identify(); err != nil {
		t.Fatal(err)
	}
	// After Identify the protocol answers ad-hoc frequency queries
	// (Definition 3.2 reduction: every heavy-hitters protocol is an oracle).
	tol := 2 * pr.conf.ErrorBound(0.01)
	heavy := dom.Item(1)
	if got := pr.EstimateFrequency(heavy); math.Abs(got-float64(ds.Count(heavy))) > tol {
		t.Errorf("oracle view: estimate %.0f, truth %d", got, ds.Count(heavy))
	}
	absent := dom.Item(999999)
	if got := pr.EstimateFrequency(absent); math.Abs(got) > tol {
		t.Errorf("oracle view: absent item estimate %.0f", got)
	}
}

func TestPESValidation(t *testing.T) {
	if _, err := New(Params{Eps: 0, N: 100, ItemBytes: 4}); err == nil {
		t.Error("Eps 0 accepted")
	}
	if _, err := New(Params{Eps: 1, N: 0, ItemBytes: 4}); err == nil {
		t.Error("N 0 accepted")
	}
	if _, err := New(Params{Eps: 1, N: 100, ItemBytes: 0}); err == nil {
		t.Error("ItemBytes 0 accepted")
	}
	// Oversized per-coordinate domain must be rejected up front.
	if _, err := New(Params{Eps: 1, N: 100, ItemBytes: 4, Y: 1 << 20, F: 16, D: 8}); err == nil {
		t.Error("huge cell domain accepted")
	}
	pr, err := New(Params{Eps: 1, N: 1000, ItemBytes: 4, Y: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := pr.Report([]byte("toolongitem"), 0, rng); err == nil {
		t.Error("wrong item length accepted")
	}
	if err := pr.Absorb(Report{M: -1}); err == nil {
		t.Error("bad group accepted")
	}
}

func TestParamsDerivation(t *testing.T) {
	p := Params{Eps: 2, N: 100000, ItemBytes: 8}
	if err := p.setDefaults(); err != nil {
		t.Fatal(err)
	}
	if p.M != 16 {
		t.Errorf("M = %d, want 16 (rate-1/2 over 8 bytes)", p.M)
	}
	if p.B < 1 {
		t.Errorf("B = %d", p.B)
	}
	if p.listCap() != 4*64 {
		t.Errorf("ℓ = %d", p.listCap())
	}
	if p.MinRecoverableFrequency() <= 0 {
		t.Error("MinRecoverableFrequency not positive")
	}
	// The threshold must exhibit the paper's sqrt(n·M) shape: doubling N
	// scales it by sqrt(2).
	p2 := Params{Eps: 2, N: 200000, ItemBytes: 8}
	if err := p2.setDefaults(); err != nil {
		t.Fatal(err)
	}
	ratio := p2.MinRecoverableFrequency() / p.MinRecoverableFrequency()
	if math.Abs(ratio-math.Sqrt2) > 0.01 {
		t.Errorf("threshold scaling %f, want sqrt(2)", ratio)
	}
}

// TestPrivacyBudgetSplit is the privacy-accounting regression test: each
// user's single message is the pair of one DirectHistogram report and one
// Hashtogram report, and both component randomizers must be constructed at
// exactly ε/2 so the composed message is ε-LDP (basic composition; the
// component randomizers' e^{ε/2} ratios are themselves verified by
// enumeration in internal/ldp).
func TestPrivacyBudgetSplit(t *testing.T) {
	const eps = 3.0
	pr, err := New(Params{Eps: eps, N: 1000, ItemBytes: 4, Y: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for m, d := range pr.direct {
		if d.Eps() != eps/2 {
			t.Errorf("coordinate %d oracle at eps %f, want %f", m, d.Eps(), eps/2)
		}
	}
	if got := pr.conf.Params().Eps; got != eps/2 {
		t.Errorf("confirmation oracle at eps %f, want %f", got, eps/2)
	}
}

// TestSingleUserInfluenceBounded is the poisoning-resistance property of the
// sketch: one malicious user injecting an adversarial (in-range) report can
// shift any single frequency estimate by at most O(CEps·Rows·scale), not
// arbitrarily — LDP sketches bound per-user influence by construction.
func TestSingleUserInfluenceBounded(t *testing.T) {
	const n = 4000
	params := Params{Eps: 2, N: n, ItemBytes: 4, Y: 64, Seed: 31}
	build := func(extra *Report) *Protocol {
		pr, err := New(params)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(1, 2))
		item := []byte{0, 0, 0, 9}
		for i := 0; i < n; i++ {
			rep, err := pr.Report(item, i, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := pr.Absorb(rep); err != nil {
				t.Fatal(err)
			}
		}
		if extra != nil {
			if err := pr.Absorb(*extra); err != nil {
				t.Fatal(err)
			}
		}
		pr.conf.Finalize()
		return pr
	}
	clean := build(nil)
	target := []byte{0, 0, 0, 9}
	base := clean.EstimateFrequency(target)

	// Adversarial report: worst in-range values for the confirmation half.
	evil := Report{
		M:    0,
		Dir:  freqoracle.DirectReport{Col: 0, Bit: 1},
		Conf: freqoracle.HashtogramReport{Row: 3, Col: 7, Bit: 1},
	}
	poisoned := build(&evil)
	got := poisoned.EstimateFrequency(target)

	// One report enters one row's accumulator with magnitude CEps after
	// unbiasing, scaled by n/rowCount ~ Rows; the median over rows further
	// dampens it. Bound generously at 3·CEps·Rows + re-normalization slack.
	ceps := 3.1 // CEps(1) = (e+1)/(e-1) ≈ 2.16, with slack
	rows := float64(clean.conf.Params().Rows)
	limit := 3*ceps*rows + 0.01*float64(n)
	if shift := math.Abs(got - base); shift > limit {
		t.Errorf("single adversarial report shifted estimate by %.0f (> %.0f)", shift, limit)
	}
}

func TestPESGroupPartitionBalanced(t *testing.T) {
	pr, err := New(Params{Eps: 1, N: 100000, ItemBytes: 4, Y: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, pr.Params().M)
	for u := 0; u < 80000; u++ {
		counts[pr.Group(u)]++
	}
	exp := 80000 / pr.Params().M
	for m, c := range counts {
		if c < exp/2 || c > 2*exp {
			t.Errorf("group %d has %d users, expected ~%d", m, c, exp)
		}
	}
}
