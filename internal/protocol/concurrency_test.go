package protocol

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"ldphh/internal/core"
	"ldphh/internal/proto"
	"ldphh/internal/workload"
)

// TestConcurrentIngestionMatchesSequential is the concurrent-ingestion
// correctness gate (run under -race in CI): many goroutine clients send
// batches to one server over concurrent connections, and the result must
// be indistinguishable from absorbing the same reports sequentially into a
// fresh protocol — same absorbed count, bit-identical identification.
// Equality is exact, not approximate: every counter is an exact integer, so
// absorption order cannot perturb any estimate.
func TestConcurrentIngestionMatchesSequential(t *testing.T) {
	const (
		n       = 8000
		clients = 8
	)
	params := core.Params{Eps: 4, N: n, ItemBytes: 4, Y: 64, Seed: 4242}

	dom := workload.Domain{ItemBytes: 4}
	ds, err := workload.Planted(dom, n, []float64{0.3, 0.2}, rand.New(rand.NewPCG(9, 9)))
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic report set: client c owns users c, c+clients, ... and
	// derives all randomness from its own seeded generator.
	client, err := core.New(params)
	if err != nil {
		t.Fatal(err)
	}
	batches := make([][]core.Report, clients)
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewPCG(uint64(c), 1234))
		for i := c; i < n; i += clients {
			rep, err := client.Report(ds.Items[i], i, rng)
			if err != nil {
				t.Fatal(err)
			}
			batches[c] = append(batches[c], rep)
		}
	}

	// Sequential reference: same params, same reports, one Absorb loop.
	ref, err := core.New(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches {
		for _, rep := range batch {
			if err := ref.Absorb(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := ref.Identify()
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent network round: every client sends its batch over its own
	// connection simultaneously.
	srv := pesServer(t, params)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(batch []proto.WireReport) {
			defer wg.Done()
			errs <- SendWireBatch(ctx, srv.Addr(), batch)
		}(encodeReports(t, batches[c]))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := srv.Absorbed(); got != n {
		t.Fatalf("server absorbed %d of %d reports", got, n)
	}
	got, err := RequestIdentifyContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("concurrent round identified %d items, sequential %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Item, want[i].Item) {
			t.Fatalf("rank %d item %x, sequential %x", i, got[i].Item, want[i].Item)
		}
		// Identify replies carry the counts' exact IEEE 754 bits.
		if math.Float64bits(got[i].Count) != math.Float64bits(want[i].Count) {
			t.Fatalf("rank %d count %v, sequential %v", i, got[i].Count, want[i].Count)
		}
	}
}

func assertSameEstimates(t *testing.T, got, want []core.Estimate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("identified %d items, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Item, want[i].Item) || got[i].Count != want[i].Count {
			t.Fatalf("rank %d: %x/%v, want %x/%v",
				i, got[i].Item, got[i].Count, want[i].Item, want[i].Count)
		}
	}
}
