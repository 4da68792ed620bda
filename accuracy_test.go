package ldphh_test

// End-to-end statistical accuracy suite: seeded heavy-hitters rounds
// through the public facade asserting the two halves of Theorem 3.13 with
// this implementation's concrete constants.
//
//  1. Recall — every planted item whose true multiplicity clears the
//     configuration's recovery floor (Params.MinRecoverableFrequency, the
//     Theorem 3.13 item-2 bound) must appear in the Identify output.
//  2. Error — the confirmation estimates of all identified items, planted
//     or not, deviate from exact ground truth by at most an envelope
//     inverted from the confirmation oracle's exact binomial tails
//     (internal/dist.BinomialTailGE), the Theorem 3.13 item-1 shape.
//
// Every round is seeded, so the suite is deterministic: it exercises the
// statistical guarantee without flaking. testing.Short() runs one small
// round so tier-1 stays quick; the full suite (CI runs it on push to main)
// sweeps more rounds at the paper-scale population.

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"ldphh"
	"ldphh/internal/dist"
	"ldphh/internal/hadamard"
	"ldphh/internal/ldp"
)

// confirmErrorBound inverts the confirmation oracle's error law into a
// deviation envelope at failure probability beta, using exact binomial
// tails rather than a Gaussian approximation.
//
// Model (Theorem 3.7's count-median estimator): a sketch row holds k ≈
// n/rows users, each contributing one ±1 bit; the row's rescaled estimate
// carries noise (n/k)·CEps(ε/2)·S_k where S_k is a k-step ±1 walk, so
// Pr[row deviates by more than e] = Pr[S_k ≥ e·k/(n·CEps)], an exact
// dist.BinomialTailGE evaluation. The published estimate is the median
// over rows, which exceeds e only when half the rows do — again a binomial
// tail. The returned envelope is the smallest quarter-sd grid point whose
// modelled failure probability is below beta, inflated by a 1.5 safety
// factor for what the walk model ignores (uneven row occupancy and sketch
// collisions with other heavy items).
func confirmErrorBound(n, rows int, eps, beta float64) float64 {
	k := n / rows
	e := math.Exp(eps / 2)
	ceps := (e + 1) / (e - 1)
	sd := ceps * float64(n) / math.Sqrt(float64(k))
	for mult := 1.0; mult < 64; mult += 0.25 {
		env := mult * sd
		t := env * float64(k) / (float64(n) * ceps)
		pRow := 2 * dist.BinomialTailGE(k, int(math.Ceil((float64(k)+t)/2)), 0.5)
		if pRow > 1 {
			pRow = 1
		}
		pMedian := dist.BinomialTailGE(rows, rows/2, pRow)
		if pMedian <= beta {
			return 1.5 * env
		}
	}
	panic("confirmErrorBound: no envelope below beta within 64 sd")
}

// accuracyRound is one planted-workload collection round.
type accuracyRound struct {
	n         int
	fractions []float64
	seed      uint64
}

func runAccuracyRound(t *testing.T, r accuracyRound) {
	t.Helper()
	dom := ldphh.Domain{ItemBytes: 4}
	ds, err := ldphh.PlantedDataset(dom, r.n, r.fractions, rand.New(rand.NewPCG(r.seed, 2)))
	if err != nil {
		t.Fatal(err)
	}
	params := ldphh.Params{Eps: 4, N: r.n, ItemBytes: 4, Y: 64, Seed: r.seed}
	hh, err := ldphh.NewHeavyHitters(params)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(r.seed, 3))
	reports := make([]ldphh.Report, r.n)
	for i, x := range ds.Items {
		if reports[i], err = hh.Report(x, i, rng); err != nil {
			t.Fatal(err)
		}
	}
	for _, rep := range reports {
		if err := hh.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	est, err := hh.Identify()
	if err != nil {
		t.Fatal(err)
	}
	estOf := make(map[string]float64, len(est))
	for _, e := range est {
		estOf[string(e.Item)] = e.Count
	}

	// Theorem 3.13 item 2: full recall above the recovery floor.
	floor := hh.Params().MinRecoverableFrequency()
	promised := ds.HeavierThan(int(floor))
	if len(promised) == 0 {
		t.Fatalf("round %+v plants no item above the floor %.0f; the recall check would be vacuous", r, floor)
	}
	recalled := 0
	for _, h := range promised {
		if _, ok := estOf[string(h.Item)]; ok {
			recalled++
		} else {
			t.Errorf("round seed=%d: item %x with true count %d >= floor %.0f not identified",
				r.seed, h.Item, h.Count, floor)
		}
	}
	t.Logf("seed=%d n=%d: recalled %d/%d promised items, output size %d, floor %.0f",
		r.seed, r.n, recalled, len(promised), len(est), floor)

	// Theorem 3.13 item 1: every published estimate is close to ground
	// truth — planted heavy hitters and any extra identified items alike.
	beta := 1e-3 / float64(len(est)+1) // union over the output list
	bound := confirmErrorBound(r.n, hh.ConfOracleParams().Rows, params.Eps, beta)
	maxErr := 0.0
	for _, e := range est {
		diff := math.Abs(e.Count - float64(ds.Count(e.Item)))
		if diff > maxErr {
			maxErr = diff
		}
		if diff > bound {
			t.Errorf("round seed=%d: item %x estimated %.0f, true %d — error %.0f exceeds the binomial-tail bound %.0f",
				r.seed, e.Item, e.Count, ds.Count(e.Item), diff, bound)
		}
	}
	t.Logf("seed=%d: max |estimate-truth| = %.0f, binomial-tail bound = %.0f", r.seed, maxErr, bound)

	// The output list must stay small: candidates are verified re-encoded
	// items, so a junk-flooded decode would show up here.
	if len(est) > 8*len(r.fractions) {
		t.Errorf("round seed=%d: output list of %d items for %d planted heavy hitters", r.seed, len(est), len(r.fractions))
	}
}

// TestAccuracyPlanted is the end-to-end guarantee gate. Short mode runs one
// reduced round; full mode sweeps three seeds at the benchmark population.
func TestAccuracyPlanted(t *testing.T) {
	if testing.Short() {
		runAccuracyRound(t, accuracyRound{n: 12000, fractions: []float64{0.35, 0.25, 0.15}, seed: 101})
		return
	}
	for _, r := range []accuracyRound{
		{n: 30000, fractions: []float64{0.25, 0.18, 0.12}, seed: 101},
		{n: 30000, fractions: []float64{0.25, 0.18, 0.12}, seed: 202},
		{n: 30000, fractions: []float64{0.3, 0.2}, seed: 303},
	} {
		runAccuracyRound(t, r)
	}
}

// TestAccuracyOpenDomainPEM is the interactive acceptance gate: on an open
// domain (stationary zipf, no candidate list anywhere), KindPEM must
// recover the true top-k with recall at least the TreeHist baseline's at
// equal ε and n, and every round's randomizer must stay inside the ε
// budget. The budget argument is composition-free by construction — users
// are partitioned into round groups and each reports exactly once, so the
// worst-case likelihood ratio across the whole discovery is the worst
// single round's, verified here exhaustively with ldp.MaxPrivacyRatio.
func TestAccuracyOpenDomainPEM(t *testing.T) {
	n := 30000
	if testing.Short() {
		n = 12000
	}
	const (
		eps  = 4.0
		k    = 8
		seed = 606
	)
	ctx := context.Background()
	dom := ldphh.Domain{ItemBytes: 2}
	ds, err := ldphh.ZipfDataset(dom, n, 64, 1.4, rand.New(rand.NewPCG(seed, 2)))
	if err != nil {
		t.Fatal(err)
	}
	trueTop := ds.TopK(k)
	recallOf := func(est []ldphh.Estimate) float64 {
		have := make(map[string]bool, len(est))
		for _, e := range est {
			have[string(e.Item)] = true
		}
		hits := 0
		for _, tc := range trueTop {
			if have[string(tc.Item)] {
				hits++
			}
		}
		return float64(hits) / float64(len(trueTop))
	}

	pem, err := ldphh.New(ldphh.KindPEM,
		ldphh.WithEps(eps), ldphh.WithN(n), ldphh.WithItemBytes(2),
		ldphh.WithSeed(seed), ldphh.WithTopK(k))
	if err != nil {
		t.Fatal(err)
	}
	it, ok := ldphh.AsInteractive(pem)
	if !ok {
		t.Fatal("KindPEM is not Interactive")
	}
	maxRatio, rounds := 0.0, 0
	for rs := it.RoundState(); !rs.Done; rs = it.RoundState() {
		// Per-round budget audit: the round's report goes through the
		// Theorem 3.8 Hadamard-bit randomizer over the padded candidate
		// domain at the full ε.
		r := ldp.NewHadamardBit(eps, hadamard.NextPow2(len(rs.Candidates)+1))
		if ratio := ldp.MaxPrivacyRatio(r); ratio > maxRatio {
			maxRatio = ratio
		}
		for i, x := range ds.Items {
			wr, err := pem.Report(x, i, ldphh.RoundRand(seed, rs.Round, i))
			if errors.Is(err, ldphh.ErrNotInRound) {
				continue
			}
			if err != nil {
				t.Fatalf("report %d round %d: %v", i, rs.Round, err)
			}
			if err := pem.Absorb(wr); err != nil {
				t.Fatalf("absorb %d round %d: %v", i, rs.Round, err)
			}
		}
		if _, err := it.AdvanceRound(); err != nil {
			t.Fatal(err)
		}
		rounds++
	}
	if budget := math.Exp(eps); maxRatio > budget*(1+1e-9) {
		t.Errorf("worst per-round privacy ratio %.6f exceeds e^ε = %.6f", maxRatio, budget)
	}
	pemEst, err := pem.Identify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pemRecall := recallOf(pemEst)

	th, err := ldphh.New(ldphh.KindTreeHist,
		ldphh.WithEps(eps), ldphh.WithN(n), ldphh.WithItemBytes(2), ldphh.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 3))
	for i, x := range ds.Items {
		wr, err := th.Report(x, i, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.Absorb(wr); err != nil {
			t.Fatal(err)
		}
	}
	thEst, err := th.Identify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	thRecall := recallOf(thEst)

	t.Logf("n=%d rounds=%d: PEM recall@%d = %.2f, TreeHist recall@%d = %.2f, worst round ratio %.4f (e^ε = %.4f)",
		n, rounds, k, pemRecall, k, thRecall, maxRatio, math.Exp(eps))
	if pemRecall < thRecall {
		t.Errorf("PEM recall@%d %.2f below the TreeHist baseline %.2f at equal ε and n", k, pemRecall, thRecall)
	}
	if pemRecall == 0 {
		t.Error("PEM recovered none of the true top-k — the comparison is vacuous")
	}
}

// TestAccuracyFrequencyOracle checks the post-Identify ad-hoc query surface
// (Definition 3.2): frequencies of items that were never identified —
// including absent ones — estimate within the same binomial-tail envelope.
func TestAccuracyFrequencyOracle(t *testing.T) {
	const n = 12000
	dom := ldphh.Domain{ItemBytes: 4}
	ds, err := ldphh.PlantedDataset(dom, n, []float64{0.35, 0.2}, rand.New(rand.NewPCG(7, 2)))
	if err != nil {
		t.Fatal(err)
	}
	params := ldphh.Params{Eps: 4, N: n, ItemBytes: 4, Y: 64, Seed: 7}
	hh, err := ldphh.NewHeavyHitters(params)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 3))
	for i, x := range ds.Items {
		rep, err := hh.Report(x, i, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := hh.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hh.Identify(); err != nil {
		t.Fatal(err)
	}
	queries := [][]byte{
		dom.Item(1),              // planted heavy
		dom.Item(2),              // planted heavy
		{0xde, 0xad, 0xbe, 0xef}, // absent: true count 0 (or tail noise)
		{0x01, 0x02, 0x03, 0x04}, // absent
	}
	bound := confirmErrorBound(n, hh.ConfOracleParams().Rows, params.Eps, 1e-3/float64(len(queries)))
	for _, q := range queries {
		got := hh.EstimateFrequency(q)
		truth := float64(ds.Count(q))
		if diff := math.Abs(got - truth); diff > bound {
			t.Errorf("EstimateFrequency(%x) = %.0f, true %.0f — error %.0f exceeds bound %.0f",
				q, got, truth, diff, bound)
		}
	}
}
