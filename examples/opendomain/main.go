// Open-domain discovery: the deployment the interactive kinds exist for —
// a device fleet holds strings from a domain nobody can enumerate and no
// product team has a candidate list for, and the server discovers the
// popular ones anyway, one prefix level per round.
//
// The round loop runs over real TCP against the generic aggregation
// server: the driver fetches each round's candidate-prefix broadcast
// (RequestRoundContext), installs it on the device fleet, the round's user
// group reports against it — every user reports exactly once across the
// whole discovery, so the per-user budget stays ε — and
// AdvanceRoundContext commits the transition server-side. At the end the discovered top-k is scored
// against the ground truth the simulated fleet kept for itself.
//
// Flags:
//
//	-mode     pem | fedtrie (default pem)
//	-n        fleet size (default 30000)
//	-eps      per-user privacy budget (default 4)
//	-k        discovery target size (default 8)
//	-support  true zipf support size (default 128)
//	-zipf-s   zipf exponent (default 1.5)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"os"

	"ldphh"
)

type config struct {
	mode      string
	n         int
	eps       float64
	k         int
	itemBytes int
	support   int
	zipfS     float64
	seed      uint64
	out       io.Writer
}

// summary is what a run proves: the multi-round discovery's final answer
// against exact ground truth.
type summary struct {
	rounds   int
	reports  int
	topFound bool    // most frequent true item present in the answer
	recallK  float64 // fraction of the true top-k discovered
}

func run(cfg config) (summary, error) {
	var sum summary
	kind, err := ldphh.ParseKind(cfg.mode)
	if err != nil {
		return sum, err
	}
	dom := ldphh.Domain{ItemBytes: cfg.itemBytes}
	ds, err := ldphh.ZipfDataset(dom, cfg.n, cfg.support, cfg.zipfS, rand.New(rand.NewPCG(cfg.seed, 2)))
	if err != nil {
		return sum, err
	}

	newProto := func() (ldphh.Protocol, error) {
		return ldphh.New(kind,
			ldphh.WithEps(cfg.eps), ldphh.WithN(cfg.n),
			ldphh.WithItemBytes(cfg.itemBytes), ldphh.WithTopK(cfg.k),
			ldphh.WithSeed(cfg.seed))
	}
	device, err := newProto()
	if err != nil {
		return sum, err
	}
	devIt, ok := ldphh.AsInteractive(device)
	if !ok {
		return sum, fmt.Errorf("%s is not an interactive kind", cfg.mode)
	}
	agg, err := newProto()
	if err != nil {
		return sum, err
	}
	srv, err := ldphh.NewAggregationServer(agg, "127.0.0.1:0")
	if err != nil {
		return sum, err
	}
	defer srv.Close()
	fmt.Fprintf(cfg.out, "aggregation server (%s) on %s; fleet of %d devices, no candidate list\n",
		kind, srv.Addr(), cfg.n)

	ctx := context.Background()
	rs, err := ldphh.RequestRoundContext(ctx, srv.Addr())
	if err != nil {
		return sum, err
	}
	for !rs.Done {
		if err := devIt.SetRoundState(rs); err != nil {
			return sum, err
		}
		var batch []ldphh.WireReport
		for i, x := range ds.Items {
			wr, err := device.Report(x, i, ldphh.RoundRand(cfg.seed, rs.Round, i))
			if errors.Is(err, ldphh.ErrNotInRound) {
				continue // this user's group reports in another round
			}
			if err != nil {
				return sum, err
			}
			batch = append(batch, wr)
		}
		if err := ldphh.SendWireReports(ctx, srv.Addr(), batch); err != nil {
			return sum, err
		}
		sum.reports += len(batch)
		fmt.Fprintf(cfg.out, "round %d/%d: %4d candidate prefixes of %2d bits, group of %d reported\n",
			rs.Round+1, rs.Rounds, len(rs.Candidates), rs.PrefixBits, len(batch))
		if rs, err = ldphh.AdvanceRoundContext(ctx, srv.Addr()); err != nil {
			return sum, err
		}
		sum.rounds++
	}

	est, err := ldphh.RequestIdentifyContext(ctx, srv.Addr())
	if err != nil {
		return sum, err
	}
	trueTop := ds.TopK(cfg.k)
	found := make(map[string]bool, len(est))
	for _, e := range est {
		found[string(e.Item)] = true
	}
	hits := 0
	for _, tc := range trueTop {
		if found[string(tc.Item)] {
			hits++
		}
	}
	sum.recallK = float64(hits) / float64(len(trueTop))
	sum.topFound = len(trueTop) > 0 && found[string(trueTop[0].Item)]

	fmt.Fprintf(cfg.out, "discovered %d items after %d rounds (%d reports, %d wire bytes/user):\n",
		len(est), sum.rounds, sum.reports, agg.BytesPerReport())
	for i, e := range est {
		if i >= cfg.k {
			break
		}
		fmt.Fprintf(cfg.out, "  %x  est=%8.0f  true=%d\n", e.Item, e.Count, ds.Count(e.Item))
	}
	fmt.Fprintf(cfg.out, "true top-%d recall: %.0f%%\n", cfg.k, 100*sum.recallK)
	return sum, nil
}

func main() {
	mode := flag.String("mode", "pem", "interactive kind: pem | fedtrie")
	n := flag.Int("n", 30000, "fleet size")
	eps := flag.Float64("eps", 4, "per-user privacy budget")
	k := flag.Int("k", 8, "discovery target size")
	itemBytes := flag.Int("itembytes", 3, "item width in bytes")
	support := flag.Int("support", 128, "true zipf support size")
	zipfS := flag.Float64("zipf-s", 1.5, "zipf exponent")
	seed := flag.Uint64("seed", 1, "seed for all randomness")
	flag.Parse()
	if _, err := run(config{
		mode: *mode, n: *n, eps: *eps, k: *k, itemBytes: *itemBytes,
		support: *support, zipfS: *zipfS, seed: *seed, out: os.Stdout,
	}); err != nil {
		log.Fatal(err)
	}
}
