package protocol

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ldphh/internal/baseline"
	"ldphh/internal/core"
	"ldphh/internal/freqoracle"
	"ldphh/internal/proto"
	"ldphh/internal/stream"
)

// ordItem encodes ordinal v as a width-w item.
func ordItem(v uint64, w int) []byte { return freqoracle.OrdinalBytes(v, w) }

// genericCase is one row of the cross-protocol transport suite: a protocol
// constructed twice from identical parameters (device side and server
// side), a dataset generator whose items are legal for the protocol's
// domain, and the planted heavy item the round must identify.
type genericCase struct {
	name      string
	n         int
	itemBytes int
	// build returns the device-side reporter and the server-side aggregator.
	build func(t *testing.T) (proto.Reporter, proto.Aggregator)
	// itemFor maps user i to its item; 40% hold heavy, 30% second, rest
	// filler.
	itemFor func(i int) []byte
	heavy   []byte
}

// plantedOrdinals is the shared dataset shape over a small ordinal domain:
// 40% ordinal 1, 30% ordinal 2, 30% spread over [3, 3+spread).
func plantedOrdinals(w, spread int) func(i int) []byte {
	return func(i int) []byte {
		switch {
		case i%10 < 4:
			return ordItem(1, w)
		case i%10 < 7:
			return ordItem(2, w)
		default:
			return ordItem(uint64(3+i%spread), w)
		}
	}
}

func genericCases() []genericCase {
	const seed = 20260729
	cases := []genericCase{
		{
			name: "pes", n: 12000, itemBytes: 4,
			build: func(t *testing.T) (proto.Reporter, proto.Aggregator) {
				params := core.Params{Eps: 4, N: 12000, ItemBytes: 4, Y: 16, Seed: seed}
				rep, err := core.NewPESWire(params)
				if err != nil {
					t.Fatal(err)
				}
				agg, err := core.NewPESWire(params)
				if err != nil {
					t.Fatal(err)
				}
				return rep, agg
			},
			itemFor: plantedOrdinals(4, 89),
			heavy:   ordItem(1, 4),
		},
		{
			name: "smalldomain", n: 6000, itemBytes: 2,
			build: func(t *testing.T) (proto.Reporter, proto.Aggregator) {
				mk := func() *core.SmallDomainWire {
					w, err := core.NewSmallDomainWire(4, 2, 64, 6000)
					if err != nil {
						t.Fatal(err)
					}
					return w
				}
				return mk(), mk()
			},
			itemFor: plantedOrdinals(2, 32),
			heavy:   ordItem(1, 2),
		},
		{
			name: "hashtogram", n: 6000, itemBytes: 3,
			build: func(t *testing.T) (proto.Reporter, proto.Aggregator) {
				candidates := [][]byte{ordItem(1, 3), ordItem(2, 3), ordItem(77, 3)}
				mk := func() *freqoracle.HashtogramWire {
					w, err := freqoracle.NewHashtogramWire(
						freqoracle.HashtogramParams{Eps: 4, N: 6000, Seed: seed}, candidates)
					if err != nil {
						t.Fatal(err)
					}
					return w
				}
				return mk(), mk()
			},
			itemFor: plantedOrdinals(3, 50),
			heavy:   ordItem(1, 3),
		},
		{
			name: "directhistogram", n: 6000, itemBytes: 2,
			build: func(t *testing.T) (proto.Reporter, proto.Aggregator) {
				mk := func() *freqoracle.DirectHistogramWire {
					w, err := freqoracle.NewDirectHistogramWire(4, 2, 64, 6000)
					if err != nil {
						t.Fatal(err)
					}
					return w
				}
				return mk(), mk()
			},
			itemFor: plantedOrdinals(2, 32),
			heavy:   ordItem(1, 2),
		},
		{
			name: "bitstogram", n: 20000, itemBytes: 2,
			build: func(t *testing.T) (proto.Reporter, proto.Aggregator) {
				mk := func() *baseline.BitstogramWire {
					w, err := baseline.NewBitstogramWire(
						baseline.BitstogramParams{Eps: 4, N: 20000, ItemBytes: 2, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					return w
				}
				return mk(), mk()
			},
			itemFor: plantedOrdinals(2, 100),
			heavy:   ordItem(1, 2),
		},
		{
			name: "treehist", n: 20000, itemBytes: 2,
			build: func(t *testing.T) (proto.Reporter, proto.Aggregator) {
				mk := func() *baseline.TreeHistWire {
					w, err := baseline.NewTreeHistWire(
						baseline.TreeHistParams{Eps: 4, N: 20000, ItemBytes: 2, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					return w
				}
				return mk(), mk()
			},
			itemFor: plantedOrdinals(2, 100),
			heavy:   ordItem(1, 2),
		},
		{
			name: "bassilysmith", n: 8000, itemBytes: 2,
			build: func(t *testing.T) (proto.Reporter, proto.Aggregator) {
				mk := func() *baseline.BassilySmithWire {
					w, err := baseline.NewBassilySmithWire(
						baseline.BassilySmithParams{Eps: 4, N: 8000, ItemBytes: 2, DomainSize: 256, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					return w
				}
				return mk(), mk()
			},
			itemFor: plantedOrdinals(2, 100),
			heavy:   ordItem(1, 2),
		},
		{
			name: "streamhg", n: 6000, itemBytes: 2,
			build: func(t *testing.T) (proto.Reporter, proto.Aggregator) {
				mk := func() *stream.Wire {
					w, err := stream.NewWire(stream.Params{
						Kind: stream.BasicHG, Eps: 16, Windows: 4, K: 16, Domain: 64,
						WindowSize: 1500, WarmupWindows: 0, N: 6000, Seed: seed,
					}, 2)
					if err != nil {
						t.Fatal(err)
					}
					return w
				}
				return mk(), mk()
			},
			itemFor: plantedOrdinals(2, 32),
			heavy:   ordItem(1, 2),
		},
	}
	return cases
}

// TestServerAllProtocols is the cross-protocol transport gate: every
// registered Table 1 protocol completes a report → TCP ingest → identify
// round trip through the identical generic server code path, with the
// planted heavy item recovered at a sane estimate. Runs under -race in CI
// (the fleet sends over concurrent connections).
func TestServerAllProtocols(t *testing.T) {
	for _, tc := range genericCases() {
		t.Run(tc.name, func(t *testing.T) {
			reporter, agg := tc.build(t)
			if agg.BytesPerReport() <= 0 || agg.SketchBytes() <= 0 {
				t.Fatalf("degenerate metrics: %d bytes/report, %d sketch bytes",
					agg.BytesPerReport(), agg.SketchBytes())
			}
			codec, ok := proto.Lookup(agg.ProtocolID())
			if !ok {
				t.Fatalf("protocol ID %#02x not registered", agg.ProtocolID())
			}
			srv, err := NewGenericServer(agg, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			// Device phase: every user derives one wire report.
			rng := rand.New(rand.NewPCG(7, 7))
			trueHeavy := 0
			reports := make([]proto.WireReport, tc.n)
			for i := range reports {
				item := tc.itemFor(i)
				if bytes.Equal(item, tc.heavy) {
					trueHeavy++
				}
				wr, err := reporter.Report(item, i, rng)
				if err != nil {
					t.Fatalf("report %d: %v", i, err)
				}
				if len(wr) != codec.FrameBytes() {
					t.Fatalf("report frame %d bytes, codec says %d", len(wr), codec.FrameBytes())
				}
				reports[i] = wr
			}

			// Transport phase: a fleet of concurrent connections.
			const fleets = 4
			var wg sync.WaitGroup
			errs := make(chan error, fleets)
			for f := 0; f < fleets; f++ {
				var batch []proto.WireReport
				for i := f; i < tc.n; i += fleets {
					batch = append(batch, reports[i])
				}
				wg.Add(1)
				go func(batch []proto.WireReport) {
					defer wg.Done()
					errs <- SendWireBatch(context.Background(), srv.Addr(), batch)
				}(batch)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := srv.Absorbed(); got != tc.n {
				t.Fatalf("server absorbed %d of %d reports", got, tc.n)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			est, err := RequestIdentifyContext(ctx, srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, e := range est {
				if bytes.Equal(e.Item, tc.heavy) {
					found = true
					if math.Abs(e.Count-float64(trueHeavy)) > float64(trueHeavy)/2 {
						t.Errorf("heavy item estimate %.0f, truth %d", e.Count, trueHeavy)
					}
				}
			}
			if !found {
				t.Errorf("planted heavy item not identified over TCP (%d estimates)", len(est))
			}
		})
	}
}

// TestServerRejectsForeignProtocol pins the connection-time negotiation:
// PES reports sent to a Bitstogram server are rejected at the preamble,
// before any state changes.
func TestServerRejectsForeignProtocol(t *testing.T) {
	agg, err := baseline.NewBitstogramWire(
		baseline.BitstogramParams{Eps: 2, N: 1000, ItemBytes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewGenericServer(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pes, err := core.NewPESWire(core.Params{Eps: 2, N: 1000, ItemBytes: 4, Y: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := pes.Report([]byte{0, 0, 0, 1}, 0, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := SendWireBatch(context.Background(), srv.Addr(), []proto.WireReport{wr}); err == nil {
		t.Fatal("bitstogram server accepted a pes batch")
	}
	if got := srv.Absorbed(); got != 0 {
		t.Fatalf("foreign batch changed absorbed count to %d", got)
	}
	// A frame whose ID disagrees with the (accepted) preamble is rejected by
	// the aggregator mid-batch: open as wildcard and smuggle the PES frame.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := append([]byte{proto.IDWildcard, cmdReportBatch, 0, 0, 0, 1}, wr...)
	// Pad to the bitstogram frame length so the server reads a full frame.
	msg = append(msg, make([]byte, 2)...)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 64)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, _ := conn.Read(reply)
	if n == 0 || reply[0] != 'E' {
		t.Fatalf("expected ERR reply for smuggled frame, got %q", reply[:n])
	}
	if got := srv.Absorbed(); got != 0 {
		t.Fatalf("smuggled frame absorbed (count %d)", got)
	}
}

// TestSnapshotUnsupportedProtocol: the snapshot commands are capability
// detected — a non-Mergeable aggregator answers ERR, not a hang or a
// panic.
func TestSnapshotUnsupportedProtocol(t *testing.T) {
	agg, err := baseline.NewTreeHistWire(
		baseline.TreeHistParams{Eps: 2, N: 1000, ItemBytes: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := proto.AsMergeable(agg); ok {
		t.Fatal("treehist unexpectedly advertises Mergeable; update this test")
	}
	srv, err := NewGenericServer(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	if _, err := RequestSnapshotContext(ctx, srv.Addr()); err == nil {
		t.Error("snapshot of a non-mergeable protocol accepted")
	}
	if err := PushSnapshotContext(ctx, srv.Addr(), []byte("LPSKjunk")); err == nil {
		t.Error("merge into a non-mergeable protocol accepted")
	}
}

// TestMergeableGenericServer: the snapshot/merge wire path works for a
// non-PES Mergeable aggregator (DirectHistogramWire) — the fan-in tree is
// a property of the capability, not of one protocol.
func TestMergeableGenericServer(t *testing.T) {
	mk := func() *freqoracle.DirectHistogramWire {
		w, err := freqoracle.NewDirectHistogramWire(2, 2, 32, 2000)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	leafAgg, rootAgg, reporter := mk(), mk(), mk()
	leaf, err := NewGenericServer(leafAgg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	root, err := NewGenericServer(rootAgg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	rng := rand.New(rand.NewPCG(5, 5))
	var reports []proto.WireReport
	for i := 0; i < 2000; i++ {
		wr, err := reporter.Report(ordItem(uint64(i%8), 2), i, rng)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, wr)
	}
	ctx := context.Background()
	if err := SendWireBatch(ctx, leaf.Addr(), reports); err != nil {
		t.Fatal(err)
	}
	snap, err := RequestSnapshotContext(ctx, leaf.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := PushSnapshotContext(ctx, root.Addr(), snap); err != nil {
		t.Fatal(err)
	}
	if got := root.Absorbed(); got != 2000 {
		t.Fatalf("root absorbed %d reports via snapshot merge, want 2000", got)
	}
	est, err := RequestIdentifyContext(ctx, root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(est) == 0 {
		t.Fatal("merged root identified nothing")
	}
}

// wedgedListener accepts connections and never reads or replies — the
// pathological server the context-aware clients must not block on.
func wedgedListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return ln
}

// TestContextClientsAgainstWedgedServer is the regression for the context
// plumbing: against a stalled server every client call — one-shot and
// session alike — must return promptly with the context's error once the
// deadline passes or the caller cancels.
func TestContextClientsAgainstWedgedServer(t *testing.T) {
	ln := wedgedListener(t)
	addr := ln.Addr().String()

	// op, when set, is the operation the error must name.
	expectDeadline := func(name, op string, f func(ctx context.Context) error) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		defer cancel()
		start := time.Now()
		err := f(ctx)
		elapsed := time.Since(start)
		if err == nil {
			t.Fatalf("%s returned nil against a wedged server", name)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s error %v does not wrap context.DeadlineExceeded", name, err)
		}
		if op != "" && !strings.Contains(err.Error(), op) {
			t.Fatalf("%s error %q does not name the %s", name, err, op)
		}
		if elapsed > 3*time.Second {
			t.Fatalf("%s took %v to honor a 150ms deadline", name, elapsed)
		}
	}

	expectDeadline("RequestIdentifyContext", "", func(ctx context.Context) error {
		_, err := RequestIdentifyContext(ctx, addr)
		return err
	})
	expectDeadline("QueryTopKContext", "top-k query", func(ctx context.Context) error {
		_, err := QueryTopKContext(ctx, addr, 4)
		return err
	})
	expectDeadline("RequestRoundContext", "", func(ctx context.Context) error {
		_, err := RequestRoundContext(ctx, addr)
		return err
	})
	expectDeadline("AdvanceRoundContext", "", func(ctx context.Context) error {
		_, err := AdvanceRoundContext(ctx, addr)
		return err
	})
	expectDeadline("RequestSnapshotContext", "", func(ctx context.Context) error {
		_, err := RequestSnapshotContext(ctx, addr)
		return err
	})
	expectDeadline("PushSnapshotContext", "", func(ctx context.Context) error {
		return PushSnapshotContext(ctx, addr, []byte("LPSKwedged"))
	})
	one := wireReports(t, 13, 1)
	expectDeadline("SendWireBatch", "", func(ctx context.Context) error {
		// A report batch: the server never reads, so the ack read blocks.
		return SendWireBatch(ctx, addr, one)
	})

	// Session calls: each on its own session, since a timed-out call leaves
	// the connection dead.
	session := func() *IngestConn {
		c, err := DialIngest(context.Background(), addr, proto.IDPrivateExpanderSketch)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c := session()
	expectDeadline("IngestConn.SendEncoded", "", func(ctx context.Context) error {
		return c.SendEncoded(ctx, make([]byte, c.FrameBytes()))
	})
	c = session()
	expectDeadline("IngestConn.QueryTopK", "top-k query", func(ctx context.Context) error {
		_, err := c.QueryTopK(ctx, 4)
		return err
	})
	c = session()
	expectDeadline("IngestConn.Round", "", func(ctx context.Context) error {
		_, err := c.Round(ctx)
		return err
	})

	// Cancellation (no deadline) must interrupt blocked I/O too.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RequestIdentifyContext(ctx, addr)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancellation error %v does not wrap context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt a blocked identify")
	}
}

// TestGenericServerUnregisteredAggregator: constructing a generic server
// around an aggregator with no registered codec fails up front.
func TestGenericServerUnregisteredAggregator(t *testing.T) {
	if _, err := NewGenericServer(fakeAggregator{}, "127.0.0.1:0"); err == nil {
		t.Fatal("server accepted an aggregator with no codec")
	}
}

type fakeAggregator struct{}

func (fakeAggregator) ProtocolID() byte                     { return 0x6f }
func (fakeAggregator) Absorb(proto.WireReport) error        { return fmt.Errorf("nope") }
func (fakeAggregator) AbsorbBatch([]proto.WireReport) error { return fmt.Errorf("nope") }
func (fakeAggregator) Identify(context.Context) ([]proto.Estimate, error) {
	return nil, fmt.Errorf("nope")
}
func (fakeAggregator) TotalReports() int   { return 0 }
func (fakeAggregator) SketchBytes() int    { return 0 }
func (fakeAggregator) BytesPerReport() int { return 0 }
