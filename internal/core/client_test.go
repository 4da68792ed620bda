package core

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"ldphh/internal/workload"
)

// TestClientServerInterop: a device-side protocol constructed
// *independently* from the same Params must produce reports the server
// accepts and decodes — the deployment-critical property that devices
// never need the server's in-memory object, only Params.
func TestClientServerInterop(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end protocol run")
	}
	const n = 30000
	params := Params{Eps: 4, N: n, ItemBytes: 4, Y: 64, Seed: 2024}
	server, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	client, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	dom := workload.Domain{ItemBytes: 4}
	ds, err := workload.Planted(dom, n, []float64{0.30, 0.22}, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for i, x := range ds.Items {
		rep, err := client.Report(x, i, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	est, err := server.Identify()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		item := dom.Item(uint64(i))
		if _, found := findEstimate(est, item); !found {
			t.Errorf("item %d not identified via independent client", i)
		}
	}
	if client.Params().MinRecoverableFrequency() != server.Params().MinRecoverableFrequency() {
		t.Error("client/server disagree on the recovery floor")
	}
}

func TestClientReportsMatchServerDerivation(t *testing.T) {
	// Same params + same rng stream => identical reports from a device-side
	// instance and a server-side Report call (they share public randomness).
	params := Params{Eps: 2, N: 1000, ItemBytes: 4, Y: 64, Seed: 5}
	server, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	client, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	item := []byte{1, 2, 3, 4}
	a, err := client.Report(item, 7, rand.New(rand.NewPCG(9, 9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := server.Report(item, 7, rand.New(rand.NewPCG(9, 9)))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("client and server derive different reports from identical randomness")
	}
}

func TestHeavyHittersFilter(t *testing.T) {
	est := []Estimate{
		{Item: []byte("a"), Count: 900},
		{Item: []byte("b"), Count: 500},
		{Item: []byte("c"), Count: 120},
		{Item: []byte("d"), Count: 20},
	}
	out, err := HeavyHitters(est, 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("filter kept %d items, want 3", len(out))
	}
	for _, e := range out {
		if e.Count < 100 {
			t.Errorf("item below delta in output: %+v", e)
		}
	}
	// List-size cap: delta=400 over n=1000 allows at most 2·1000/400 = 5;
	// with a tiny delta the cap binds.
	big := make([]Estimate, 50)
	for i := range big {
		big[i] = Estimate{Item: []byte{byte(i)}, Count: float64(1000 - i)}
	}
	out, err = HeavyHitters(big, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) > 2*100/50 {
		t.Errorf("list-size bound violated: %d items", len(out))
	}
	// Validation.
	if _, err := HeavyHitters(est, 1000, 0); err == nil {
		t.Error("delta 0 accepted")
	}
	if _, err := HeavyHitters(est, 0, 10); err == nil {
		t.Error("n 0 accepted")
	}
	unsorted := []Estimate{{Count: 1}, {Count: 2}}
	if _, err := HeavyHitters(unsorted, 10, 1); err == nil {
		t.Error("unsorted estimates accepted")
	}
}

// atLeast returns the estimates whose count reaches minCount.
func atLeast(est []Estimate, minCount float64) []Estimate {
	var out []Estimate
	for _, e := range est {
		if e.Count >= minCount {
			out = append(out, e)
		}
	}
	return out
}

func TestSmallDomainProtocol(t *testing.T) {
	// The n > |X| regime: enumerate the domain directly (paper's remark
	// after Theorem 3.13).
	const domainSize = 256
	const n = 40000
	s, err := NewSmallDomainWire(1.0, 1, domainSize, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	truth := make([]int, domainSize)
	for i := 0; i < n; i++ {
		var v byte
		switch {
		case i < 12000:
			v = 7
		case i < 18000:
			v = 200
		default:
			v = byte(rng.UintN(domainSize))
		}
		truth[v]++
		wr, err := s.Report([]byte{v}, i, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Absorb(wr); err != nil {
			t.Fatal(err)
		}
	}
	all, err := s.Identify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	bound := s.Oracle().ErrorBound(n, 0.001/domainSize)
	est := atLeast(all, bound)
	// The two planted values must surface with accurate counts.
	for _, v := range []byte{7, 200} {
		got := s.Oracle().Estimate(uint64(v))
		if math.Abs(got-float64(truth[v])) > bound {
			t.Errorf("value %d: estimate %.0f, truth %d (bound %.0f)", v, got, truth[v], bound)
		}
		found := false
		for _, e := range est {
			if bytes.Equal(e.Item, []byte{v}) {
				found = true
			}
		}
		if !found {
			t.Errorf("value %d not in Identify output", v)
		}
	}
	if len(est) > 40 {
		t.Errorf("small-domain output bloated: %d items", len(est))
	}
}

func TestSmallDomainValidation(t *testing.T) {
	if _, err := NewSmallDomainWire(1, 0, 16, 100); err == nil {
		t.Error("ItemBytes 0 accepted")
	}
	if _, err := NewSmallDomainWire(1, 9, 16, 100); err == nil {
		t.Error("ItemBytes 9 accepted")
	}
	if _, err := NewSmallDomainWire(1, 1, 1, 100); err == nil {
		t.Error("domain 1 accepted")
	}
	if _, err := NewSmallDomainWire(1, 1, 300, 100); err == nil {
		t.Error("domain exceeding width accepted")
	}
	s, err := NewSmallDomainWire(1, 2, 256, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := s.Report([]byte{1}, 0, rng); err == nil {
		t.Error("wrong width accepted")
	}
	if _, err := s.Report([]byte{9, 9}, 0, rng); err == nil {
		t.Error("out-of-domain ordinal accepted")
	}
	// Identify enumerates only the domain, so an out-of-domain item never
	// carries an estimate.
	est, err := s.Identify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range est {
		if bytes.Equal(e.Item, []byte{9, 9}) {
			t.Errorf("out-of-domain estimate %f", e.Count)
		}
	}
}

// TestConcurrentReports: Report is safe for concurrent use with per-worker
// rngs (clients are immutable after construction), and the resulting
// protocol round still identifies the planted items.
func TestConcurrentReports(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end protocol run")
	}
	const n = 30000
	const workers = 8
	params := Params{Eps: 4, N: n, ItemBytes: 4, Y: 64, Seed: 321}
	server, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	client, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	dom := workload.Domain{ItemBytes: 4}
	ds, err := workload.Planted(dom, n, []float64{0.30}, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]Report, n)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 9))
			for i := w; i < n; i += workers {
				rep, err := client.Report(ds.Items[i], i, rng)
				if err != nil {
					errs <- err
					return
				}
				reports[i] = rep
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, rep := range reports {
		if err := server.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	est, err := server.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if _, found := findEstimate(est, dom.Item(1)); !found {
		t.Error("planted item lost under concurrent report generation")
	}
}

// TestPESZipfWorkload: end-to-end on the Zipf-shaped population the paper's
// applications have (URL/word telemetry), asserting recall over every rank
// above the configuration's floor.
func TestPESZipfWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end protocol run")
	}
	const n = 60000
	dom := workload.Domain{ItemBytes: 4}
	ds, err := workload.Zipf(dom, n, 500, 1.6, rand.New(rand.NewPCG(11, 12)))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Eps: 4, N: n, ItemBytes: 4, Y: 128, Seed: 88}
	est := runProtocol(t, p, ds, 13)
	pr, _ := New(p)
	floor := pr.Params().MinRecoverableFrequency()
	// With margin: require recall for items 1.3x above the floor.
	for _, h := range ds.HeavierThan(int(1.3 * floor)) {
		if _, found := findEstimate(est, h.Item); !found {
			t.Errorf("zipf item %x (count %d, floor %.0f) not identified", h.Item, h.Count, floor)
		}
	}
}
