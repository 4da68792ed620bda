package ldphh_test

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"ldphh"
)

// TestPublicAPIEndToEnd exercises the facade exactly the way the README
// quickstart does.
func TestPublicAPIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end protocol run")
	}
	const n = 60000
	dom := ldphh.Domain{ItemBytes: 4}
	ds, err := ldphh.PlantedDataset(dom, n, []float64{0.20, 0.15}, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	hh, err := ldphh.NewHeavyHitters(ldphh.Params{Eps: 4, N: n, ItemBytes: 4, Y: 128, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for i, x := range ds.Items {
		rep, err := hh.Report(x, i, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := hh.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	est, err := hh.Identify()
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, e := range est {
		if bytes.Equal(e.Item, dom.Item(1)) || bytes.Equal(e.Item, dom.Item(2)) {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("found %d of 2 planted heavy hitters", found)
	}
}

func TestPublicAPICalculators(t *testing.T) {
	// Theorem 4.2 vs central model.
	if ldphh.AdvancedGroupEpsilon(0.1, 10000, 1e-9) >= ldphh.CentralGroupEpsilon(0.1, 10000) {
		t.Error("advanced grouposition not beating central at large k")
	}
	if ldphh.MaxInformation(0.1, 100, 0.01) <= 0 {
		t.Error("max-information bound degenerate")
	}
	// Theorem 7.2 bound shape.
	if ldphh.ErrorLowerBound(1, 40000, 1<<32, 0.05) <= ldphh.ErrorLowerBound(1, 10000, 1<<32, 0.05) {
		t.Error("lower bound not increasing in n")
	}
	// Randomized response and its exhaustive privacy verification.
	rr := ldphh.NewBinaryRR(1.0)
	if got := ldphh.MaxPrivacyRatio(rr); math.Abs(got-math.E) > 1e-9 {
		t.Errorf("RR privacy ratio %f, want e", got)
	}
	leaky := ldphh.NewLeakyRR(0.2, 0.01)
	if !math.IsInf(ldphh.MaxPrivacyRatio(leaky), 1) {
		t.Error("leaky RR should fail pure privacy")
	}
}

func TestPublicAPIMTilde(t *testing.T) {
	m, err := ldphh.NewMTilde(64, 0.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExactTV() > 0.01 {
		t.Error("MTilde TV above beta")
	}
	if m.TildeEpsilon() <= 0 {
		t.Error("degenerate tilde epsilon")
	}
}

func TestPublicAPIGenProt(t *testing.T) {
	r := ldphh.NewLeakyRR(0.2, 1e-4)
	tr, err := ldphh.NewGenProt(ldphh.GenProtParams{Eps: 0.2, T: 32}, r, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.MaxReportRatio(); got > math.Exp(10*0.2) {
		t.Errorf("GenProt report ratio %f exceeds e^{10ε}", got)
	}
	if tr.ReportBits() > 8 {
		t.Errorf("GenProt report uses %d bits", tr.ReportBits())
	}
	if ldphh.GenProtDefaultT(0.2, 1<<20, 0.01) < 10 {
		t.Error("DefaultT too small")
	}
}

func TestPublicAPIOracles(t *testing.T) {
	h, err := ldphh.NewHashtogram(ldphh.HashtogramParams{Eps: 1, N: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 1000; i++ {
		if err := h.Absorb(h.Report([]byte("heavy"), i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	h.Finalize()
	if got := h.Estimate([]byte("heavy")); math.Abs(got-1000) > 600 {
		t.Errorf("facade hashtogram estimate %f", got)
	}

	d, err := ldphh.NewDirectHistogram(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		rep, err := d.Report(3, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	d.Finalize()
	if got := d.Estimate(3); math.Abs(got-2000) > 800 {
		t.Errorf("facade direct histogram estimate %f", got)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	if _, err := ldphh.NewBitstogram(ldphh.BitstogramParams{Eps: 1, N: 1000, ItemBytes: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ldphh.NewBassilySmith(ldphh.BassilySmithParams{Eps: 1, N: 1000, ItemBytes: 2, DomainSize: 256, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ldphh.NewTreeHist(ldphh.TreeHistParams{Eps: 1, N: 1000, ItemBytes: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIClientAndFilter(t *testing.T) {
	params := ldphh.Params{Eps: 2, N: 1000, ItemBytes: 4, Y: 64, Seed: 3}
	client, err := ldphh.NewHeavyHitters(params)
	if err != nil {
		t.Fatal(err)
	}
	if client.Params().MinRecoverableFrequency() <= 0 {
		t.Error("client floor degenerate")
	}
	est := []ldphh.Estimate{
		{Item: []byte("hot"), Count: 800},
		{Item: []byte("warm"), Count: 90},
	}
	out, err := ldphh.FilterHeavyHitters(est, 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || string(out[0].Item) != "hot" {
		t.Fatalf("filter = %+v", out)
	}
}

func TestPublicAPISmallDomain(t *testing.T) {
	const n = 8000
	s, err := ldphh.New(ldphh.KindSmallDomain, ldphh.WithEps(1), ldphh.WithN(n),
		ldphh.WithItemBytes(1), ldphh.WithDomainSize(64))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < n; i++ {
		wr, err := s.Report([]byte{byte(i % 2)}, i, rng)
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
	est, err := ldphh.FilterHeavyHitters(all, n, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != 2 {
		t.Fatalf("small-domain identify returned %d items", len(est))
	}
}

func TestPublicAPIZipf(t *testing.T) {
	dom := ldphh.Domain{ItemBytes: 8}
	ds, err := ldphh.ZipfDataset(dom, 5000, 100, 1.0, rand.New(rand.NewPCG(11, 12)))
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 5000 {
		t.Fatalf("N = %d", ds.N())
	}
	if ds.Count(dom.Item(1)) <= ds.Count(dom.Item(50)) {
		t.Error("Zipf skew missing through the facade")
	}
}

// TestPublicAPIMergeTree exercises the distributed-aggregation facade: leaf
// HeavyHitters instances snapshot their state, a root merges the bytes both
// in process (MergeSnapshot) and over TCP
// (RequestSnapshotContext/PushSnapshotContext against Server instances),
// and both roots identify bit-identically to a sequential
// single-aggregator run.
func TestPublicAPIMergeTree(t *testing.T) {
	const n = 8000
	const leaves = 3
	params := ldphh.Params{Eps: 4, N: n, ItemBytes: 4, Y: 16, Seed: 11}
	dom := ldphh.Domain{ItemBytes: 4}
	ds, err := ldphh.PlantedDataset(dom, n, []float64{0.35, 0.25}, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	client, err := ldphh.NewHeavyHitters(params)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 8))
	reports := make([]ldphh.Report, n)
	for i, x := range ds.Items {
		if reports[i], err = client.Report(x, i, rng); err != nil {
			t.Fatal(err)
		}
	}

	// Sequential reference.
	seq, err := ldphh.NewHeavyHitters(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if err := seq.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	want, err := seq.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference run identified nothing")
	}

	// Library-layer tree.
	root, err := ldphh.NewHeavyHitters(params)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < leaves; l++ {
		leaf, err := ldphh.NewHeavyHitters(params)
		if err != nil {
			t.Fatal(err)
		}
		for i := l; i < n; i += leaves {
			if err := leaf.Absorb(reports[i]); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := leaf.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := root.MergeSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	got, err := root.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("merged root identified %d items, sequential %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Item, want[i].Item) || got[i].Count != want[i].Count {
			t.Fatalf("rank %d diverged from sequential run", i)
		}
	}

	// TCP tree through the facade: the same reports, encoded for the wire by
	// a device-side instance, into PES aggregation servers.
	if testing.Short() {
		return
	}
	dev, err := ldphh.NewHeavyHitters(params)
	if err != nil {
		t.Fatal(err)
	}
	wireRng := rand.New(rand.NewPCG(7, 8))
	wrs := make([]ldphh.WireReport, n)
	for i, x := range ds.Items {
		if wrs[i], err = dev.Wire().Report(x, i, wireRng); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	newServer := func() *ldphh.Server {
		t.Helper()
		hh, err := ldphh.NewHeavyHitters(params)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ldphh.NewAggregationServer(hh.Wire(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	rootSrv := newServer()
	defer rootSrv.Close()
	for l := 0; l < leaves; l++ {
		leafSrv := newServer()
		var shard []ldphh.WireReport
		for i := l; i < n; i += leaves {
			shard = append(shard, wrs[i])
		}
		if err := ldphh.SendWireReports(ctx, leafSrv.Addr(), shard); err != nil {
			t.Fatal(err)
		}
		snap, err := ldphh.RequestSnapshotContext(ctx, leafSrv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := ldphh.PushSnapshotContext(ctx, rootSrv.Addr(), snap); err != nil {
			t.Fatal(err)
		}
		leafSrv.Close()
	}
	netEst, err := ldphh.RequestIdentifyContext(ctx, rootSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(netEst) != len(want) {
		t.Fatalf("TCP tree identified %d items, sequential %d", len(netEst), len(want))
	}
	for i := range netEst {
		// Identify replies carry the counts' exact IEEE 754 bits.
		if !bytes.Equal(netEst[i].Item, want[i].Item) ||
			math.Float64bits(netEst[i].Count) != math.Float64bits(want[i].Count) {
			t.Fatalf("TCP rank %d diverged from sequential run", i)
		}
	}
}
