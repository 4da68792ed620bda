package core

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"testing"

	"ldphh/internal/workload"
)

// TestIdentifyWorkerDeterminism is the Identify-side twin of the ingestion
// equivalence tests (run under -race in CI): the same absorbed reports must
// produce byte-identical identification — same items, same order, same
// bit-exact counts — at every worker count, because all scheduling freedom
// in the parallel pipeline is confined to stages whose outputs are pure
// functions of (counters, Seed).
func TestIdentifyWorkerDeterminism(t *testing.T) {
	const n = 12000
	base := Params{Eps: 4, N: n, ItemBytes: 4, Y: 64, Seed: 777}

	dom := workload.Domain{ItemBytes: 4}
	ds, err := workload.Planted(dom, n, []float64{0.35, 0.25, 0.15}, rand.New(rand.NewPCG(5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	client, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(6, 6))
	reports := make([]Report, n)
	for i := range reports {
		if reports[i], err = client.Report(ds.Items[i], i, rng); err != nil {
			t.Fatal(err)
		}
	}

	run := func(workers int) []Estimate {
		t.Helper()
		params := base
		params.Workers = workers
		p, err := New(params)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range reports {
			if err := p.Absorb(rep); err != nil {
				t.Fatal(err)
			}
		}
		est, err := p.Identify()
		if err != nil {
			t.Fatal(err)
		}
		return est
	}

	want := run(1)
	if len(want) == 0 {
		t.Fatal("serial Identify returned no items; the equivalence check would be vacuous")
	}
	counts := []int{2, 3, 4, 7, runtime.GOMAXPROCS(0)}
	for _, workers := range counts {
		if workers < 2 {
			continue
		}
		got := run(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d identified %d items, serial %d", workers, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Item, want[i].Item) {
				t.Fatalf("workers=%d rank %d item %x, serial %x", workers, i, got[i].Item, want[i].Item)
			}
			// Bit-exact, not approximately equal: the determinism contract.
			if got[i].Count != want[i].Count {
				t.Fatalf("workers=%d rank %d count %v, serial %v", workers, i, got[i].Count, want[i].Count)
			}
		}
	}
}

// TestWorkersValidation covers the knob's edge cases: 0 derives GOMAXPROCS,
// negatives are rejected, and the value never leaks into public randomness
// (two protocols differing only in Workers share every hash function).
func TestWorkersValidation(t *testing.T) {
	base := Params{Eps: 2, N: 1000, ItemBytes: 4, Y: 16, Seed: 3}

	p := base
	if err := p.setDefaults(); err != nil {
		t.Fatal(err)
	}
	if p.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers defaulted to %d, want GOMAXPROCS = %d", p.Workers, runtime.GOMAXPROCS(0))
	}

	p = base
	p.Workers = -1
	if _, err := New(p); err == nil {
		t.Fatal("negative Workers accepted")
	}

	a := base
	a.Workers = 1
	b := base
	b.Workers = 16
	pa, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := New(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range [][]byte{{0, 0, 0, 1}, {9, 9, 9, 9}, {1, 2, 3, 4}} {
		if pa.Bucket(item) != pb.Bucket(item) {
			t.Fatalf("Workers changed public randomness: Bucket(%x) differs", item)
		}
	}
	for u := 0; u < 50; u++ {
		if pa.Group(u) != pb.Group(u) {
			t.Fatalf("Workers changed public randomness: Group(%d) differs", u)
		}
	}
}

// TestIdentifyReusesSlabs pins the memory of Identify's reconstruction:
// each coordinate is finalized and scanned in one task on one of
// min(Workers, M) reused T-cell histogram slabs, so one Identify
// allocates less than one slab more than those, where keeping a fresh
// view per coordinate allocates M of them. SketchBytes counts the slabs
// once Identify has allocated them, so before it the figure does not
// depend on the worker count.
func TestIdentifyReusesSlabs(t *testing.T) {
	leaf := benchProtocol(t)
	snap, err := leaf.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	counters := leaf.SketchBytes()
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		p := leaf.Params()
		p.Workers = workers
		pr, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.MergeSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if got := pr.SketchBytes(); got != counters {
			t.Errorf("workers=%d: SketchBytes before Identify = %d, want %d", workers, got, counters)
		}
		slab := 8 * uint64(pr.direct[0].T())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := pr.Identify(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got, bound := after.TotalAlloc-before.TotalAlloc, uint64(min(workers, p.M)+1)*slab
		t.Logf("workers=%d: Identify allocated %d bytes, %.2f slabs of %d", workers, got, float64(got)/float64(slab), slab)
		if got >= bound {
			t.Errorf("workers=%d: Identify allocated %d bytes, want < %d: (min(Workers, M)+1) slabs of %d", workers, got, bound, slab)
		}
		if got, want := pr.SketchBytes()-pr.conf.SketchBytes(), counters-leaf.conf.SketchBytes()+min(workers, p.M)*int(slab); got != want {
			t.Errorf("workers=%d: SketchBytes after Identify, less the confirmation oracle, = %d, want %d", workers, got, want)
		}
	}
}
