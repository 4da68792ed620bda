package freqoracle

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"ldphh/internal/proto"
)

// population builds n users where item i (as 8-byte key) has the given
// multiplicity; remaining users get unique filler items.
type population struct {
	items  [][]byte
	truth  map[string]int
	filler int
}

func buildPopulation(n int, planted map[uint64]int) *population {
	p := &population{truth: make(map[string]int)}
	for key, count := range planted {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, key)
		p.truth[string(b)] = count
		for i := 0; i < count; i++ {
			p.items = append(p.items, b)
		}
	}
	filler := 1 << 40
	for len(p.items) < n {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, uint64(filler))
		filler++
		p.items = append(p.items, b)
		p.filler++
	}
	// Deterministic shuffle so user order is not correlated with values.
	rng := rand.New(rand.NewPCG(1234, 5678))
	rng.Shuffle(len(p.items), func(i, j int) { p.items[i], p.items[j] = p.items[j], p.items[i] })
	return p
}

func key(k uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, k)
	return b
}

func TestHashtogramAccuracy(t *testing.T) {
	n := 60000
	planted := map[uint64]int{1: 9000, 2: 6000, 3: 3000, 4: 900}
	pop := buildPopulation(n, planted)
	h, err := NewHashtogram(HashtogramParams{Eps: 1.0, N: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	for i, x := range pop.items {
		if err := h.Absorb(h.Report(x, i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	h.Finalize()
	bound := h.ErrorBound(0.01)
	for k, want := range planted {
		got := h.Estimate(key(uint64(k)))
		if math.Abs(got-float64(want)) > bound {
			t.Errorf("item %d: estimate %.0f, want %d (bound %.0f)", k, got, want, bound)
		}
	}
	// An absent item must estimate near zero.
	if got := h.Estimate(key(999999)); math.Abs(got) > bound {
		t.Errorf("absent item estimate %.0f exceeds bound %.0f", got, bound)
	}
}

func TestHashtogramUnbiasedOverSeeds(t *testing.T) {
	// Average the estimate of one item over independent protocol runs; the
	// mean must converge to the true count.
	n := 4000
	trueCount := 600
	planted := map[uint64]int{42: trueCount}
	pop := buildPopulation(n, planted)
	const runs = 30
	sum := 0.0
	for seed := uint64(0); seed < runs; seed++ {
		h, err := NewHashtogram(HashtogramParams{Eps: 1.0, N: n, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(seed, 99))
		for i, x := range pop.items {
			if err := h.Absorb(h.Report(x, i, rng)); err != nil {
				t.Fatal(err)
			}
		}
		h.Finalize()
		sum += h.Estimate(key(42))
	}
	mean := sum / runs
	se := 3 * 8 * math.Sqrt(float64(n)) / math.Sqrt(runs) // ~CEps·sqrt(nR)/sqrt(runs), generous
	if math.Abs(mean-float64(trueCount)) > se {
		t.Fatalf("mean estimate over %d runs = %.0f, want ~%d (tol %.0f)", runs, mean, trueCount, se)
	}
}

func TestHashtogramValidation(t *testing.T) {
	if _, err := NewHashtogram(HashtogramParams{Eps: 0, N: 100}); err == nil {
		t.Error("Eps 0 accepted")
	}
	if _, err := NewHashtogram(HashtogramParams{Eps: 1, N: 0}); err == nil {
		t.Error("N 0 accepted")
	}
	if _, err := NewHashtogram(HashtogramParams{Eps: 1, N: 100, T: 100}); err == nil {
		t.Error("non-power-of-two T accepted")
	}
	h, err := NewHashtogram(HashtogramParams{Eps: 1, N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Absorb(HashtogramReport{Row: -1, Col: 0, Bit: 1}); err == nil {
		t.Error("bad row accepted")
	}
	if err := h.Absorb(HashtogramReport{Row: 0, Col: 1 << 30, Bit: 1}); err == nil {
		t.Error("bad col accepted")
	}
	if err := h.Absorb(HashtogramReport{Row: 0, Col: 0, Bit: 0}); err == nil {
		t.Error("bad bit accepted")
	}
	h.Finalize()
	if err := h.Absorb(HashtogramReport{Row: 0, Col: 0, Bit: 1}); err != nil {
		t.Errorf("Absorb after Finalize: %v", err)
	}
	h.Finalize() // repeatable
}

func TestHashtogramEmpty(t *testing.T) {
	h, err := NewHashtogram(HashtogramParams{Eps: 1, N: 100})
	if err != nil {
		t.Fatal(err)
	}
	h.Finalize()
	if got := h.Estimate([]byte("anything")); got != 0 {
		t.Errorf("empty oracle estimate = %f", got)
	}
}

func TestHashtogramRowAssignmentBalanced(t *testing.T) {
	h, err := NewHashtogram(HashtogramParams{Eps: 1, N: 100000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rows := h.Params().Rows
	counts := make([]int, rows)
	for u := 0; u < 100000; u++ {
		counts[h.Row(u)]++
	}
	exp := 100000 / rows
	for r, c := range counts {
		if c < exp/2 || c > exp*2 {
			t.Errorf("row %d has %d users, expected ~%d", r, c, exp)
		}
	}
}

func TestDirectHistogramAccuracy(t *testing.T) {
	const domain = 300
	const n = 40000
	d, err := NewDirectHistogram(1.0, domain)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]int, domain)
	rng := rand.New(rand.NewPCG(5, 5))
	zipfish := []uint64{7, 7, 7, 7, 7, 13, 13, 13, 200, 200, 4}
	for i := 0; i < n; i++ {
		x := zipfish[i%len(zipfish)]
		truth[x]++
		rep, err := d.Report(x, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	d.Finalize()
	bound := d.ErrorBound(n, 0.001)
	for x := 0; x < domain; x++ {
		got := d.Estimate(uint64(x))
		if math.Abs(got-float64(truth[x])) > bound {
			t.Errorf("value %d: estimate %.0f, want %d (bound %.0f)", x, got, truth[x], bound)
		}
	}
	hist := d.Histogram()
	if len(hist) != domain {
		t.Fatalf("histogram length %d", len(hist))
	}
	for x := 0; x < domain; x++ {
		if hist[x] != d.Estimate(uint64(x)) {
			t.Fatal("Histogram() disagrees with Estimate()")
		}
	}
}

func TestDirectHistogramErrorScalesWithEps(t *testing.T) {
	// Empirical error at eps=0.5 should exceed error at eps=2 (roughly by
	// the CEps ratio) on the same data.
	const domain = 64
	const n = 30000
	errAt := func(eps float64) float64 {
		d, err := NewDirectHistogram(eps, domain)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(9, 9))
		for i := 0; i < n; i++ {
			rep, _ := d.Report(uint64(i%domain), rng)
			if err := d.Absorb(rep); err != nil {
				t.Fatal(err)
			}
		}
		d.Finalize()
		worst := 0.0
		for x := 0; x < domain; x++ {
			e := math.Abs(d.Estimate(uint64(x)) - float64(n/domain))
			if e > worst {
				worst = e
			}
		}
		return worst
	}
	low, high := errAt(2.0), errAt(0.5)
	if high < 1.5*low {
		t.Errorf("error at eps=0.5 (%.0f) not clearly above error at eps=2 (%.0f)", high, low)
	}
}

func TestDirectHistogramValidation(t *testing.T) {
	if _, err := NewDirectHistogram(0, 10); err == nil {
		t.Error("eps 0 accepted")
	}
	if _, err := NewDirectHistogram(1, 0); err == nil {
		t.Error("domain 0 accepted")
	}
	d, _ := NewDirectHistogram(1, 10)
	if _, err := d.Report(10, rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Error("out-of-domain value accepted")
	}
	if err := d.Absorb(DirectReport{Col: 999, Bit: 1}); err == nil {
		t.Error("bad column accepted")
	}
	if err := d.Absorb(DirectReport{Col: 0, Bit: 2}); err == nil {
		t.Error("bad bit accepted")
	}
}

// TestDirectHistogramWireFloorDuringIngest pins that an adapter built
// without an n hint (ldphh.New without WithN) sizes its recovery floor from
// the absorbed count read under the adapter lock. Under -race it queries
// the floor while another goroutine absorbs batches.
func TestDirectHistogramWireFloorDuringIngest(t *testing.T) {
	w, err := NewDirectHistogramWire(4, 2, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	batch := make([]proto.WireReport, 256)
	for i := range batch {
		if batch[i], err = w.Report(OrdinalBytes(uint64(i%64), 2), i, rng); err != nil {
			t.Fatal(err)
		}
	}
	const batches = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			if err := w.AbsorbBatch(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < batches; i++ {
		if f := w.MinRecoverableFrequency(); !(f > 0) {
			t.Errorf("floor %v during ingest, want > 0", f)
		}
	}
	wg.Wait()
	if got := w.TotalReports(); got != batches*len(batch) {
		t.Fatalf("absorbed %d reports, want %d", got, batches*len(batch))
	}
}

func runOracle(t *testing.T, o Oracle, pop *population) {
	t.Helper()
	rng := rand.New(rand.NewPCG(11, 11))
	for i, x := range pop.items {
		if err := o.AddUser(x, i, rng); err != nil {
			t.Fatal(err)
		}
	}
	o.Finalize()
}

func TestBaselineOraclesAccuracy(t *testing.T) {
	n := 40000
	planted := map[uint64]int{1: 8000, 2: 4000, 3: 1200}
	pop := buildPopulation(n, planted)

	hash, err := NewHashtogramOracle(HashtogramParams{Eps: 1.5, N: n, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	olh, err := NewOLHOracle(1.5, 0, 22)
	if err != nil {
		t.Fatal(err)
	}
	oracles := []Oracle{
		hash,
		NewRAPPOROracle(1.5, 64, 2, 23),
		olh,
	}
	for _, o := range oracles {
		runOracle(t, o, pop)
		tol := 18 * math.Sqrt(float64(n)) // generous common envelope at eps=1.5
		for k, want := range planted {
			got := o.Estimate(key(uint64(k)))
			if math.Abs(got-float64(want)) > tol {
				t.Errorf("%s: item %d estimate %.0f, want %d (tol %.0f)", o.Name(), k, got, want, tol)
			}
		}
		if o.BytesPerReport() <= 0 || o.SketchBytes() <= 0 {
			t.Errorf("%s: degenerate size metrics", o.Name())
		}
	}
}

func TestKRROracle(t *testing.T) {
	candidates := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma"), []byte("delta")}
	o, err := NewKRROracle(1.0, candidates)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(31, 31))
	n := 40000
	truth := map[string]int{"alpha": 20000, "beta": 12000, "gamma": 8000, "delta": 0}
	for i := 0; i < n; i++ {
		var x []byte
		switch {
		case i < 20000:
			x = candidates[0]
		case i < 32000:
			x = candidates[1]
		default:
			x = candidates[2]
		}
		if err := o.AddUser(x, i, rng); err != nil {
			t.Fatal(err)
		}
	}
	o.Finalize()
	for name, want := range truth {
		got := o.Estimate([]byte(name))
		if math.Abs(got-float64(want)) > 2500 {
			t.Errorf("krr %s: estimate %.0f, want %d", name, got, want)
		}
	}
	if err := o.AddUser([]byte("unknown"), 0, rng); err == nil {
		t.Error("unknown candidate accepted")
	}
	if got := o.Estimate([]byte("unknown")); got != 0 {
		t.Errorf("unknown estimate = %f", got)
	}
	if _, err := NewKRROracle(1, [][]byte{[]byte("one")}); err == nil {
		t.Error("single candidate accepted")
	}
	if _, err := NewKRROracle(1, [][]byte{[]byte("a"), []byte("a")}); err == nil {
		t.Error("duplicate candidates accepted")
	}
}

func TestOLHValidation(t *testing.T) {
	if _, err := NewOLHOracle(0, 0, 1); err == nil {
		t.Error("eps 0 accepted")
	}
	if _, err := NewOLHOracle(1, 1, 1); err == nil {
		t.Error("g=1 accepted")
	}
	if _, err := NewOLHOracle(1, 1<<17, 1); err == nil {
		t.Error("huge g accepted")
	}
}

func TestHashtogramErrorBoundShape(t *testing.T) {
	h, err := NewHashtogram(HashtogramParams{Eps: 1, N: 10000})
	if err != nil {
		t.Fatal(err)
	}
	// Monotone decreasing in beta; increasing as eps decreases.
	if h.ErrorBound(0.01) <= h.ErrorBound(0.1) {
		t.Error("bound not decreasing in beta")
	}
	h2, _ := NewHashtogram(HashtogramParams{Eps: 0.5, N: 10000})
	if h2.ErrorBound(0.05) <= h.ErrorBound(0.05) {
		t.Error("bound not decreasing in eps")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("beta=0 accepted")
			}
		}()
		h.ErrorBound(0)
	}()
}

func BenchmarkHashtogramReport(b *testing.B) {
	h, err := NewHashtogram(HashtogramParams{Eps: 1, N: 1 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	item := []byte("benchmark")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Report(item, i, rng)
	}
}

func BenchmarkHashtogramAbsorbFinalize100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h, err := NewHashtogram(HashtogramParams{Eps: 1, N: 100000, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(i), 1))
		reports := make([]HashtogramReport, 100000)
		for u := range reports {
			reports[u] = h.Report(key(uint64(u%50)), u, rng)
		}
		b.StartTimer()
		for _, rep := range reports {
			if err := h.Absorb(rep); err != nil {
				b.Fatal(err)
			}
		}
		h.Finalize()
	}
}

func BenchmarkDirectHistogramFinalize1M(b *testing.B) {
	d, err := NewDirectHistogram(1, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 1000; i++ {
		rep, _ := d.Report(uint64(i), rng)
		if err := d.Absorb(rep); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Finalize()
	}
}

func ExampleDirectHistogram() {
	d, _ := NewDirectHistogram(2.0, 4)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 8000; i++ {
		rep, _ := d.Report(uint64(i%2), rng) // half zeros, half ones
		_ = d.Absorb(rep)
	}
	d.Finalize()
	fmt.Println(d.Estimate(0) > 2500, d.Estimate(1) > 2500, math.Abs(d.Estimate(3)) < 1500)
	// Output: true true true
}

// TestHashtogramFinalizeWorkersEquivalence pins the bounded-finalize
// contract: the frozen sketch — hence every estimate — is bit-identical
// whether the per-row transforms run serially, under a small pool, or one
// goroutine per row (the plain Finalize path).
func TestHashtogramFinalizeWorkersEquivalence(t *testing.T) {
	const n = 4000
	pop := buildPopulation(n, map[uint64]int{1: 900, 2: 500})
	build := func(finalize func(h *Hashtogram)) *Hashtogram {
		t.Helper()
		h, err := NewHashtogram(HashtogramParams{Eps: 2, N: n, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(3, 3))
		for i, x := range pop.items {
			if err := h.Absorb(h.Report(x, i, rng)); err != nil {
				t.Fatal(err)
			}
		}
		finalize(h)
		return h
	}
	ref := build(func(h *Hashtogram) { h.FinalizeWorkers(1) })
	for name, fin := range map[string]func(h *Hashtogram){
		"workers_3": func(h *Hashtogram) { h.FinalizeWorkers(3) },
		"workers_over_rows": func(h *Hashtogram) {
			h.FinalizeWorkers(10 * h.Params().Rows)
		},
		"Finalize": func(h *Hashtogram) { h.Finalize() },
	} {
		got := build(fin)
		for _, q := range [][]byte{key(1), key(2), key(3), key(1 << 41)} {
			if ref.Estimate(q) != got.Estimate(q) {
				t.Fatalf("%s: Estimate(%x) = %v, serial finalize %v",
					name, q, got.Estimate(q), ref.Estimate(q))
			}
		}
	}
}
