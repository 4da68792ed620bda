package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"ldphh"
)

// hashtogram_durable shape: KindHashtogram over a dictionary of
// durableDict candidates, 8×10^6 devices drawn zipf over it, one
// connection of durableBatch-frame batches, checkpoints coupled to the
// acks every durableEvery reports with the timer off.
const (
	durableDevices = 8_000_000
	durableDict    = 50_000
	durableZipfS   = 1.1
	durableEps     = 4
	durableBatch   = 512
	durableEvery   = 16 * durableBatch
)

type durableWorkload struct {
	seed    uint64
	scratch string // parent of the per-round checkpoint directories
	dict    [][]byte
	pop     *population
	lastDir string // the newest round's checkpoint directory
}

func (w *durableWorkload) kind() ldphh.Kind { return ldphh.KindHashtogram }

func (w *durableWorkload) newAgg() (ldphh.Protocol, error) {
	return ldphh.New(ldphh.KindHashtogram, ldphh.WithEps(durableEps), ldphh.WithN(durableDevices),
		ldphh.WithSeed(w.seed), ldphh.WithCandidates(w.dict))
}

func (w *durableWorkload) populate(seed uint64) (*population, error) {
	w.seed = seed
	w.dict = make([][]byte, durableDict)
	for i := range w.dict {
		w.dict[i] = itemOf(uint32(i + 1))
	}
	dev, err := w.newAgg()
	if err != nil {
		return nil, err
	}
	// Zipf rank r is dictionary item rankItem[r], a seeded permutation.
	rankItem := rand.New(rand.NewPCG(seed, 0x72616e6b)).Perm(durableDict)
	z := newZipf(durableDict, durableZipfS)
	draw := func(rng *rand.Rand) uint32 { return uint32(1 + rankItem[z.sample(rng)]) }
	w.pop, err = buildPopulation(dev, durableDevices, seed, draw)
	return w.pop, err
}

func (w *durableWorkload) ckptOpts(dir string) []ldphh.ServerOption {
	return []ldphh.ServerOption{
		ldphh.WithCheckpointDir(dir),
		ldphh.WithCheckpointEvery(durableEvery),
		ldphh.WithCheckpointInterval(0),
	}
}

func (w *durableWorkload) start(rec *recorder, round int) (*fleet, error) {
	dir := filepath.Join(w.scratch, fmt.Sprintf("ckpt-round%d", round))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	agg, err := w.newAgg()
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	if _, err := f.serve(rec, "client.start", agg, w.ckptOpts(dir)...); err != nil {
		return nil, err
	}
	return f, nil
}

func (w *durableWorkload) run(ctx context.Context, b *bench, f *fleet, rec *recorder) (*round, error) {
	r := &round{rec: rec}
	if w.lastDir != "" && w.lastDir != f.dir {
		os.RemoveAll(w.lastDir) //nolint:errcheck // scratch space; the run directory is removed at exit
	}
	w.lastDir = f.dir
	lanes := []laneTarget{{server: 0, addr: f.servers[0].Addr(), slab: w.pop.slab}}
	rt0 := readRuntime()
	hs := startHeapSampler(heapTick)
	ing, err := ingest(ctx, w.kind(), lanes, durableBatch, w.pop.frameLen, rec)
	if err != nil {
		hs.finish()
		return nil, err
	}
	rt1 := readRuntime()
	answerStart := time.Now()
	if rec != nil {
		r.answerFrom = rec.now()
	}
	absorbed := f.servers[0].Absorbed()
	b.op(rec.client("client.shutdown", 0, func() error { return f.servers[0].Shutdown(ctx) }))
	var agg ldphh.Protocol
	err = b.op(rec.client("client.new", 1, func() error {
		var err error
		agg, err = w.newAgg()
		return err
	}))
	var srv *ldphh.Server
	if err == nil {
		srv, err = f.serve(rec, "client.restart", agg, w.ckptOpts(f.dir)...)
		b.op(err)
	}
	if err == nil {
		err = b.op(rec.client("client.identify", 1, func() error {
			var err error
			r.est, err = ldphh.RequestIdentifyContext(ctx, srv.Addr())
			return err
		}))
	}
	r.answer = time.Since(answerStart)
	r.rtTimed = readRuntime().sub(rt0)
	r.rtIngest = rt1.sub(rt0)
	r.peakHeapMB = hs.finish()
	r.ing = ing
	b.countIngest(ing)

	acked := ing.total()
	b.check(absorbed == acked, "server absorbed %d reports but acknowledged %d", absorbed, acked)
	b.check(acked == w.pop.devices(), "%d of %d reports acknowledged", acked, w.pop.devices())
	if err != nil {
		return r, nil
	}
	recovered := srv.Metrics().RecoveredReports()
	b.check(recovered == int64(acked), "restarted server recovered %d reports, %d were acknowledged", recovered, acked)
	floor := agg.(ldphh.Calibrated).MinRecoverableFrequency()
	r.recall, r.heavy = recall(w.pop.truth, r.est, floor)
	b.check(r.heavy > 0, "no dictionary item is above the floor %.0f", floor)
	return r, nil
}

func (w *durableWorkload) probeTarget() probeInput {
	return probeInput{newAgg: w.newAgg, pop: w.pop, candidates: w.dict, ckptDir: w.lastDir, scratch: w.scratch}
}

func (w *durableWorkload) String() string { return "hashtogram_durable" }
