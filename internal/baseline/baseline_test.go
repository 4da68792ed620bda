package baseline

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"ldphh/internal/proto"
	"ldphh/internal/workload"
)

func findEstimate(est []Estimate, item []byte) (float64, bool) {
	for _, e := range est {
		if bytes.Equal(e.Item, item) {
			return e.Count, true
		}
	}
	return 0, false
}

func TestBitstogramRecoversHeavyHitters(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end protocol run")
	}
	const n = 60000
	dom := workload.Domain{ItemBytes: 4}
	ds, err := workload.Planted(dom, n, []float64{0.25, 0.20}, rand.New(rand.NewPCG(17, 18)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBitstogram(BitstogramParams{Eps: 4, N: n, ItemBytes: 4, Seed: 303})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(19, 20))
	for i, x := range ds.Items {
		rep, err := b.Report(x, i, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	est, err := b.Identify(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		item := dom.Item(uint64(i))
		got, found := findEstimate(est, item)
		if !found {
			t.Errorf("planted item %d not identified by bitstogram", i)
			continue
		}
		if math.Abs(got-float64(ds.Count(item))) > 4000 {
			t.Errorf("item %d: estimate %.0f, truth %d", i, got, ds.Count(item))
		}
	}
	// Candidate set must stay near O(K·T), not the domain.
	if len(est) > 3*b.reps*b.t {
		t.Errorf("candidate blow-up: %d", len(est))
	}
}

func TestBitstogramSuboptimalBetaDependence(t *testing.T) {
	// The baseline's threshold grows like sqrt(Reps) = sqrt(log(1/β)) while
	// PES's is β-free; verify the formulas exhibit the paper's Table 1 gap.
	mk := func(beta float64) float64 {
		b, err := NewBitstogram(BitstogramParams{Eps: 2, N: 1 << 20, ItemBytes: 8, Beta: beta, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return b.MinRecoverableFrequency()
	}
	loose, tight := mk(0.25), mk(1.0/(1<<12))
	ratio := tight / loose
	want := math.Sqrt(12.0 / 2.0) // sqrt(Reps ratio)
	if math.Abs(ratio-want) > 0.3 {
		t.Errorf("threshold beta-scaling ratio %.2f, want ~%.2f", ratio, want)
	}
}

func TestBitstogramValidation(t *testing.T) {
	if _, err := NewBitstogram(BitstogramParams{Eps: 0, N: 10, ItemBytes: 4}); err == nil {
		t.Error("Eps 0 accepted")
	}
	if _, err := NewBitstogram(BitstogramParams{Eps: 1, N: 10, ItemBytes: 0}); err == nil {
		t.Error("ItemBytes 0 accepted")
	}
	if _, err := NewBitstogram(BitstogramParams{Eps: 1, N: 10, ItemBytes: 4, Beta: 2}); err == nil {
		t.Error("Beta >= 1 accepted")
	}
	b, err := NewBitstogram(BitstogramParams{Eps: 1, N: 100, ItemBytes: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := b.Report([]byte("x"), 0, rng); err == nil {
		t.Error("wrong item width accepted")
	}
	if err := b.Absorb(BitstogramReport{Rep: -1}); err == nil {
		t.Error("bad group accepted")
	}
}

func TestBassilySmithRecoversHeavyHitters(t *testing.T) {
	if testing.Short() {
		t.Skip("quadratic-cost baseline")
	}
	const n = 20000
	const domainSize = 4096
	params := BassilySmithParams{
		Eps:        2,
		N:          n,
		ItemBytes:  2,
		DomainSize: domainSize,
		Proj:       4096,
		Seed:       99,
	}
	bs, err := NewBassilySmith(params)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(41, 42))
	truth := make([]int, domainSize)
	for i := 0; i < n; i++ {
		var x uint64
		switch {
		case i < 5000:
			x = 7
		case i < 8000:
			x = 1234
		default:
			x = uint64(rng.IntN(domainSize)) // uniform background
		}
		truth[x]++
		rep, err := bs.Report(x, i, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := bs.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	bound := bs.ErrorBound(0.01)
	est := bs.Identify(bound)
	for _, x := range []uint64{7, 1234} {
		got, found := findEstimate(est, ordinalBytes(x, 2))
		if !found {
			t.Errorf("heavy ordinal %d not identified", x)
			continue
		}
		if math.Abs(got-float64(truth[x])) > 2*bound {
			t.Errorf("ordinal %d: estimate %.0f, truth %d (bound %.0f)", x, got, truth[x], bound)
		}
	}
	// With the threshold at the error bound, the output must stay small.
	if len(est) > 64 {
		t.Errorf("identify returned %d items above the noise threshold", len(est))
	}
}

// lateCancel is a context whose Err turns non-nil from its second call on:
// the adapter's entry check passes and the scan's first check, at ordinal
// 0, cancels, deterministically and without sleeps.
type lateCancel struct {
	context.Context
	calls int
}

func (c *lateCancel) Err() error {
	c.calls++
	if c.calls > 1 {
		return context.Canceled
	}
	return nil
}

// TestBassilySmithCancelledIdentifyKeepsRound pins the round lifecycle on
// the one kernel that checks its context mid-scan: a scan cancelled after
// the adapter's entry check leaves the round open, the next Absorb
// succeeds, and the next Identify equals an uninterrupted aggregator's,
// bit for bit. That successful Identify closes the round, so a further
// Absorb is refused.
func TestBassilySmithCancelledIdentifyKeepsRound(t *testing.T) {
	const n = 2000
	params := BassilySmithParams{Eps: 4, N: n, ItemBytes: 2, DomainSize: 4096, Proj: 512, Seed: 5}
	mk := func() *BassilySmithWire {
		w, err := NewBassilySmithWire(params)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w, ref := mk(), mk()
	rng := rand.New(rand.NewPCG(1, 2))
	wrs := make([]proto.WireReport, n)
	for i := range wrs {
		x := uint64(7)
		if i%2 == 1 {
			x = uint64(rng.IntN(params.DomainSize))
		}
		var err error
		if wrs[i], err = w.Report(ordinalBytes(x, 2), i, rng); err != nil {
			t.Fatal(err)
		}
	}
	last := wrs[n-1]
	for _, agg := range []*BassilySmithWire{w, ref} {
		if err := agg.AbsorbBatch(wrs[:n-1]); err != nil {
			t.Fatal(err)
		}
	}

	ctx := &lateCancel{Context: context.Background()}
	if _, err := w.Identify(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Identify cancelled mid-scan: err = %v, want context.Canceled", err)
	}
	if ctx.calls < 2 {
		t.Fatalf("the scan never checked the context (%d calls)", ctx.calls)
	}
	if err := w.Absorb(last); err != nil {
		t.Fatalf("Absorb after a cancelled Identify: %v", err)
	}
	if err := ref.Absorb(last); err != nil {
		t.Fatal(err)
	}
	got, err := w.Identify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Identify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference identified nothing; the comparison would be vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("identified %d items, uninterrupted reference %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Item, want[i].Item) || math.Float64bits(got[i].Count) != math.Float64bits(want[i].Count) {
			t.Fatalf("estimate %d = %x:%v, reference %x:%v", i, got[i].Item, got[i].Count, want[i].Item, want[i].Count)
		}
	}
	if err := w.Absorb(last); !errors.Is(err, proto.ErrRoundClosed) {
		t.Fatalf("Absorb after Identify: err = %v, want ErrRoundClosed", err)
	}
}

func TestBassilySmithValidation(t *testing.T) {
	if _, err := NewBassilySmith(BassilySmithParams{Eps: 0, N: 10, ItemBytes: 2, DomainSize: 16}); err == nil {
		t.Error("Eps 0 accepted")
	}
	if _, err := NewBassilySmith(BassilySmithParams{Eps: 1, N: 10, ItemBytes: 1, DomainSize: 300}); err == nil {
		t.Error("domain exceeding width accepted")
	}
	if _, err := NewBassilySmith(BassilySmithParams{Eps: 1, N: 10, ItemBytes: 2, DomainSize: 1}); err == nil {
		t.Error("degenerate domain accepted")
	}
	bs, err := NewBassilySmith(BassilySmithParams{Eps: 1, N: 10, ItemBytes: 2, DomainSize: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := bs.Report(64, 0, rng); err == nil {
		t.Error("out-of-domain ordinal accepted")
	}
	if err := bs.Absorb(BassilySmithReport{Row: -1, Bit: 1}); err == nil {
		t.Error("bad row accepted")
	}
	if err := bs.Absorb(BassilySmithReport{Row: 0, Bit: 0}); err == nil {
		t.Error("bad bit accepted")
	}
}

func TestNonPrivate(t *testing.T) {
	np := NewNonPrivate()
	for i := 0; i < 10; i++ {
		np.AddUser([]byte("a"))
	}
	for i := 0; i < 5; i++ {
		np.AddUser([]byte("b"))
	}
	np.AddUser([]byte("c"))
	est := np.Identify(5)
	if len(est) != 2 {
		t.Fatalf("Identify(5) returned %d items", len(est))
	}
	if !bytes.Equal(est[0].Item, []byte("a")) || est[0].Count != 10 {
		t.Errorf("top item %q count %.0f", est[0].Item, est[0].Count)
	}
	if np.Estimate([]byte("c")) != 1 || np.Estimate([]byte("zz")) != 0 {
		t.Error("exact estimates wrong")
	}
}

func TestOrdinalBytes(t *testing.T) {
	if got := ordinalBytes(0x0102, 2); !bytes.Equal(got, []byte{1, 2}) {
		t.Errorf("ordinalBytes = %v", got)
	}
	if got := ordinalBytes(7, 4); !bytes.Equal(got, []byte{0, 0, 0, 7}) {
		t.Errorf("ordinalBytes = %v", got)
	}
}
