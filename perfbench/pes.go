package main

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"ldphh"
)

// pes_fanin shape: the facade's default PES parameters (ε = 4, 4-byte
// items, Y = 512) over 10^6 devices per round, three planted heavy hitters
// over a zipf background, 4096-frame mega-batches on two connections, one
// per leaf server.
const (
	pesDevices  = 1_000_000
	pesBatch    = 4096
	pesEps      = 4
	pesSupport  = 100_000 // zipf background support
	pesZipfS    = 0.9     // keeps every background item well under the floor
	pesLanes    = 2       // leaves, one connection each; servers 0 and 1
	pesRootID   = 2       // server id of the fan-in root
	pesPlantedN = 3
)

// pesPlanted are the planted heavy-hitter shares.
var pesPlanted = [pesPlantedN]float64{0.25, 0.18, 0.12}

// pesWorkload is pes_fanin: two leaves ingest over one connection each,
// then their snapshots are pulled and pushed into a root, which answers.
type pesWorkload struct {
	seed    uint64
	planted [pesPlantedN]uint32
	pop     *population
	first   []ldphh.Estimate // the first round's answer
}

func (w *pesWorkload) kind() ldphh.Kind { return ldphh.PrivateExpanderSketch }

func (w *pesWorkload) newAgg() (ldphh.Protocol, error) {
	return ldphh.New(ldphh.PrivateExpanderSketch,
		ldphh.WithEps(pesEps), ldphh.WithN(pesDevices), ldphh.WithSeed(w.seed))
}

func (w *pesWorkload) populate(seed uint64) (*population, error) {
	w.seed = seed
	dev, err := w.newAgg()
	if err != nil {
		return nil, err
	}
	// Planted items have the top bit set, outside the background's
	// ordinals [1, pesSupport].
	prng := rand.New(rand.NewPCG(seed, 0x706c616e74))
	for i := range w.planted {
		v := prng.Uint32() | 1<<31
		for slices.Contains(w.planted[:i], v) {
			v = prng.Uint32() | 1<<31
		}
		w.planted[i] = v
	}
	z := newZipf(pesSupport, pesZipfS)
	cum := [pesPlantedN]float64{}
	acc := 0.0
	for i, f := range pesPlanted {
		acc += f
		cum[i] = acc
	}
	draw := func(rng *rand.Rand) uint32 {
		u := rng.Float64()
		for i, c := range cum {
			if u < c {
				return w.planted[i]
			}
		}
		return uint32(1 + z.sample(rng))
	}
	w.pop, err = buildPopulation(dev, pesDevices, seed, draw)
	return w.pop, err
}

func (w *pesWorkload) start(rec *recorder, _ int) (*fleet, error) {
	f := &fleet{}
	for i := 0; i <= pesRootID; i++ {
		agg, err := w.newAgg()
		if err != nil {
			f.close()
			return nil, err
		}
		if _, err := f.serve(rec, "client.start", agg); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (w *pesWorkload) run(ctx context.Context, b *bench, f *fleet, rec *recorder) (*round, error) {
	r := &round{rec: rec}
	lanes := make([]laneTarget, pesLanes)
	for i := range lanes {
		lanes[i] = laneTarget{server: i, addr: f.servers[i].Addr(), slab: w.pop.lane(i, pesLanes)}
	}
	rt0 := readRuntime()
	hs := startHeapSampler(heapTick)
	ing, err := ingest(ctx, w.kind(), lanes, pesBatch, w.pop.frameLen, rec)
	if err != nil {
		hs.finish()
		return nil, err
	}
	rt1 := readRuntime()
	hs.sample()
	answerStart := time.Now()
	if rec != nil {
		r.answerFrom = rec.now()
	}
	root := f.servers[pesRootID]
	absorbed := make([]int, pesLanes) // per leaf, read when it is retired
	for leaf := 0; leaf < pesLanes; leaf++ {
		var snap []byte
		err := b.op(rec.client("client.pull", leaf, func() error {
			var err error
			snap, err = ldphh.RequestSnapshotContext(ctx, f.servers[leaf].Addr())
			return err
		}))
		// A pulled leaf is retired, as a fan-in coordinator would: its
		// 256 MiB sketch need not outlive the pull.
		absorbed[leaf] = f.retire(leaf)
		if err != nil {
			continue
		}
		hs.sample()
		b.op(rec.client("client.push", pesRootID, func() error { return ldphh.PushSnapshotContext(ctx, root.Addr(), snap) }))
	}
	err = b.op(rec.client("client.identify", pesRootID, func() error {
		var err error
		r.est, err = ldphh.RequestIdentifyContext(ctx, root.Addr())
		return err
	}))
	r.answer = time.Since(answerStart)
	r.rtTimed = readRuntime().sub(rt0)
	r.rtIngest = rt1.sub(rt0)
	r.peakHeapMB = hs.finish()
	r.ing = ing
	b.countIngest(ing)

	// Every server absorbed exactly what it acknowledged (the root: what
	// both leaves acknowledged, through the merges).
	for i := range lanes {
		b.check(absorbed[i] == ing.acked[i], "leaf %d absorbed %d reports but acknowledged %d", i, absorbed[i], ing.acked[i])
	}
	got := root.Absorbed()
	b.check(got == ing.total(), "the root absorbed %d reports but %d were acknowledged", got, ing.total())
	b.check(ing.total() == w.pop.devices(), "%d of %d reports acknowledged", ing.total(), w.pop.devices())
	if err != nil {
		return r, nil
	}
	floor := f.aggs[pesRootID].(ldphh.Calibrated).MinRecoverableFrequency()
	r.recall, r.heavy = recall(w.pop.truth, r.est, floor)
	for _, p := range w.planted {
		b.check(containsWithin(r.est, p, float64(w.pop.truth[p]), floor),
			"planted item %08x (count %d) missing from the answer or off by more than the floor %.0f", p, w.pop.truth[p], floor)
	}
	if w.first == nil {
		w.first = r.est
	}
	b.check(sameEstimates(r.est, w.first), "answer differs between rounds over the same reports")
	return r, nil
}

// containsWithin reports whether est holds item with a count within floor
// of want.
func containsWithin(est []ldphh.Estimate, item uint32, want, floor float64) bool {
	key := string(itemOf(item))
	for _, e := range est {
		if string(e.Item) == key {
			return math.Abs(e.Count-want) <= floor
		}
	}
	return false
}

func (w *pesWorkload) probeTarget() probeInput {
	return probeInput{newAgg: w.newAgg, pop: w.pop, answer: w.first}
}

func (w *pesWorkload) String() string { return "pes_fanin" }
