// Merge tree: a two-tier aggregation topology over the full
// PrivateExpanderSketch protocol. Regional aggregators each collect a shard
// of the fleet's reports into their own HeavyHitters instance (identical
// Params, so identical public randomness); each region then serializes its
// accumulated state with Snapshot, and the central aggregator folds the
// bytes in with MergeSnapshot and runs Identify once over the whole
// population — without any aggregator ever seeing another region's raw
// reports, and with the bit-identical output a single central server would
// have produced (verified at the end against a sequential replay).
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand/v2"

	"ldphh"
)

func main() {
	const n = 30000
	const regions = 6
	params := ldphh.Params{Eps: 4, N: n, ItemBytes: 4, Y: 64, Seed: 2718}

	// The fleet: two planted popular items + long tail, users spread across
	// regions round-robin.
	dom := ldphh.Domain{ItemBytes: 4}
	ds, err := ldphh.PlantedDataset(dom, n, []float64{0.25, 0.15}, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		log.Fatal(err)
	}

	// One aggregator per region, identical parameters. Devices derive their
	// reports from an instance built on Params alone.
	device, err := ldphh.NewHeavyHitters(params)
	if err != nil {
		log.Fatal(err)
	}
	regional := make([]*ldphh.HeavyHitters, regions)
	for r := range regional {
		if regional[r], err = ldphh.NewHeavyHitters(params); err != nil {
			log.Fatal(err)
		}
	}
	rng := rand.New(rand.NewPCG(3, 4))
	reports := make([]ldphh.Report, n)
	for i, item := range ds.Items {
		if reports[i], err = device.Report(item, i, rng); err != nil {
			log.Fatal(err)
		}
		if err := regional[i%regions].Absorb(reports[i]); err != nil {
			log.Fatal(err)
		}
	}

	// Central merge: every regional aggregator ships its serialized state
	// upstream; the center absorbs the bytes. Snapshots are versioned and
	// parameter-fingerprinted — a region built from a different Seed would
	// be rejected here, not silently mis-merged.
	central, err := ldphh.NewHeavyHitters(params)
	if err != nil {
		log.Fatal(err)
	}
	snapBytes := 0
	for r := 0; r < regions; r++ {
		snap, err := regional[r].Snapshot()
		if err != nil {
			log.Fatal(err)
		}
		snapBytes += len(snap)
		if err := central.MergeSnapshot(snap); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%d regions merged (%d snapshot bytes), %d total reports\n",
		regions, snapBytes, central.TotalReports())

	est, err := central.Identify()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("central aggregator identified %d heavy hitters:\n", len(est))
	for i, e := range est {
		if i >= 5 {
			break
		}
		fmt.Printf("  %x  est=%7.0f  true=%6d\n", e.Item, e.Count, ds.Count(e.Item))
	}

	// The merge determinism contract: the tree produced exactly what one
	// aggregator ingesting everything would have.
	replay, err := ldphh.NewHeavyHitters(params)
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range reports {
		if err := replay.Absorb(rep); err != nil {
			log.Fatal(err)
		}
	}
	want, err := replay.Identify()
	if err != nil {
		log.Fatal(err)
	}
	if len(est) != len(want) {
		log.Fatalf("merged round identified %d items, sequential replay %d", len(est), len(want))
	}
	for i := range est {
		if !bytes.Equal(est[i].Item, want[i].Item) || est[i].Count != want[i].Count {
			log.Fatalf("rank %d diverged from the sequential replay", i)
		}
	}
	fmt.Println("merged identification is bit-identical to the sequential replay")
}
