package protocol

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ldphh/internal/core"
	"ldphh/internal/freqoracle"
	"ldphh/internal/proto"
	"ldphh/internal/stream"
)

func treeParams(seed uint64) core.Params {
	return core.Params{Eps: 4, N: 20000, ItemBytes: 4, Y: 16, Seed: seed}
}

// pesServer starts a PES aggregation server for params on loopback; the
// test's cleanup closes it.
func pesServer(t testing.TB, params core.Params) *Server {
	t.Helper()
	agg, err := core.NewPESWire(params)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewGenericServer(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// encodeReports serializes PES reports into wire frames.
func encodeReports(t testing.TB, reps []core.Report) []proto.WireReport {
	t.Helper()
	wrs := make([]proto.WireReport, len(reps))
	for i, rep := range reps {
		wr, err := core.EncodeReportWire(rep)
		if err != nil {
			t.Fatal(err)
		}
		wrs[i] = wr
	}
	return wrs
}

// treeReports builds a deterministic planted report stream for the tree
// tests (items 1 and 2 heavy, thin tail).
func treeReports(t testing.TB, params core.Params, n int) []core.Report {
	t.Helper()
	proto, err := core.New(params)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(41, 42))
	reports := make([]core.Report, n)
	for i := range reports {
		var item [4]byte
		switch {
		case i%10 < 4:
			item[3] = 1
		case i%10 < 7:
			item[3] = 2
		default:
			item[2] = byte(i % 89)
			item[3] = byte(i % 241)
		}
		rep, err := proto.Report(item[:], i, rng)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = rep
	}
	return reports
}

// TestTreeEquivalenceTCP is the end-to-end half of the tentpole property:
// a two-tier aggregation tree over real TCP — k leaf servers ingesting
// report shards concurrently, a root absorbing their snapshots via
// cmdSnapshot/cmdMergeSnapshot — must answer Identify byte-identically to
// one server that ingested every report itself. The wire reply carries
// counts as raw IEEE 754 bits, so the comparison is exact on items, order
// and float64 counts.
func TestTreeEquivalenceTCP(t *testing.T) {
	const n = 12000
	params := treeParams(314)
	reports := encodeReports(t, treeReports(t, params, n))
	ctx := context.Background()

	// Reference: a single aggregator served the whole fleet.
	single := pesServer(t, params)
	if err := SendWireBatch(ctx, single.Addr(), reports); err != nil {
		t.Fatal(err)
	}
	want, err := RequestIdentifyContext(ctx, single.Addr())
	if err != nil {
		t.Fatal(err)
	}
	single.Close()
	if len(want) == 0 {
		t.Fatal("reference round identified nothing; the equivalence check would be vacuous")
	}

	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("leaves_%d", k), func(t *testing.T) {
			root := pesServer(t, params)
			leaves := make([]*Server, k)
			for l := range leaves {
				leaves[l] = pesServer(t, params)
			}
			// Leaf tier: each leaf ingests its shard over concurrent
			// connections.
			var wg sync.WaitGroup
			errs := make(chan error, k)
			for l := 0; l < k; l++ {
				var shard []proto.WireReport
				for i := l; i < n; i += k {
					shard = append(shard, reports[i])
				}
				wg.Add(1)
				go func(addr string, shard []proto.WireReport) {
					defer wg.Done()
					errs <- SendWireBatch(ctx, addr, shard)
				}(leaves[l].Addr(), shard)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			// Fan-in: pull each leaf's state and push it into the root.
			for l := 0; l < k; l++ {
				snap, err := RequestSnapshotContext(ctx, leaves[l].Addr())
				if err != nil {
					t.Fatal(err)
				}
				if err := PushSnapshotContext(ctx, root.Addr(), snap); err != nil {
					t.Fatal(err)
				}
			}
			if got := root.Absorbed(); got != n {
				t.Fatalf("root absorbed %d reports, want %d", got, n)
			}
			got, err := RequestIdentifyContext(ctx, root.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("tree identified %d items, single server %d", len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i].Item, want[i].Item) || got[i].Count != want[i].Count {
					t.Fatalf("rank %d diverged: %x/%v vs %x/%v",
						i, got[i].Item, got[i].Count, want[i].Item, want[i].Count)
				}
			}
		})
	}
}

// TestSnapshotCommandErrors covers the failure replies of the two new
// commands: snapshotting a closed round, pushing corrupt bytes, and pushing
// a snapshot from a differently-parameterized tree or another kind all
// answer ERR without disturbing the server.
func TestSnapshotCommandErrors(t *testing.T) {
	params := treeParams(99)
	srv := pesServer(t, params)
	ctx := context.Background()
	if err := SendWireBatch(ctx, srv.Addr(), encodeReports(t, treeReports(t, params, 300))); err != nil {
		t.Fatal(err)
	}
	snap, err := RequestSnapshotContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("merge corrupt blob", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[0] = 'X'
		if err := PushSnapshotContext(ctx, srv.Addr(), bad); err == nil {
			t.Error("corrupt snapshot accepted")
		}
		if got := srv.Absorbed(); got != 300 {
			t.Errorf("corrupt push changed absorbed count to %d", got)
		}
	})
	t.Run("merge truncated blob", func(t *testing.T) {
		if err := PushSnapshotContext(ctx, srv.Addr(), snap[:len(snap)/2]); err == nil {
			t.Error("truncated snapshot accepted")
		}
	})
	t.Run("merge across seeds", func(t *testing.T) {
		other := pesServer(t, treeParams(100))
		if err := PushSnapshotContext(ctx, other.Addr(), snap); err == nil {
			t.Error("snapshot from a differently-seeded tree accepted")
		}
	})
	t.Run("merge across parameters and kinds", func(t *testing.T) {
		hashtogram := func(eps float64, seed uint64) func() (proto.Protocol, error) {
			return func() (proto.Protocol, error) {
				return freqoracle.NewHashtogramWire(freqoracle.HashtogramParams{Eps: eps, N: 1000, Seed: seed}, nil)
			}
		}
		streamhg := func(itemBytes int) func() (proto.Protocol, error) {
			return func() (proto.Protocol, error) {
				return stream.NewWire(stream.Params{
					Kind: stream.Naive, Eps: 4, Windows: 1, K: 4, Domain: 64, WindowSize: 100, Seed: 1,
				}, itemBytes)
			}
		}
		gaps := []struct {
			name       string
			leaf, root func() (proto.Protocol, error)
			itemBytes  int // leaf item width
		}{
			{"hashtogram across seeds", hashtogram(4, 1), hashtogram(4, 2), 2},
			{"hashtogram across eps", hashtogram(4, 1), hashtogram(2, 1), 2},
			{"smalldomain into directhistogram", func() (proto.Protocol, error) {
				return core.NewSmallDomainWire(4, 2, 64, 1000)
			}, func() (proto.Protocol, error) {
				return freqoracle.NewDirectHistogramWire(4, 2, 64, 1000)
			}, 2},
			{"streamhg across item widths", streamhg(1), streamhg(2), 1},
		}
		for _, gap := range gaps {
			t.Run(gap.name, func(t *testing.T) {
				serve := func(build func() (proto.Protocol, error)) (proto.Protocol, *Server) {
					p, err := build()
					if err != nil {
						t.Fatal(err)
					}
					srv, err := NewGenericServer(p, "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { srv.Close() })
					return p, srv
				}
				leaf, leafSrv := serve(gap.leaf)
				_, rootSrv := serve(gap.root)
				rng := rand.New(rand.NewPCG(3, 4))
				wrs := make([]proto.WireReport, 50)
				for i := range wrs {
					item := make([]byte, gap.itemBytes)
					item[gap.itemBytes-1] = byte(i % 7)
					wr, err := leaf.Report(item, i, rng)
					if err != nil {
						t.Fatal(err)
					}
					wrs[i] = wr
				}
				if err := SendWireBatch(ctx, leafSrv.Addr(), wrs); err != nil {
					t.Fatal(err)
				}
				leafSnap, err := RequestSnapshotContext(ctx, leafSrv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				before := rootSrv.Absorbed()
				if err := PushSnapshotContext(ctx, rootSrv.Addr(), leafSnap); err == nil {
					t.Error("mismatched snapshot accepted")
				}
				if got := rootSrv.Absorbed(); got != before {
					t.Errorf("mismatched push changed the root's absorbed count from %d to %d", before, got)
				}
			})
		}
	})
	t.Run("self merge doubles counters", func(t *testing.T) {
		// Merging my own snapshot is legal (fingerprints match) and, per the
		// linear-accumulator semantics, double-counts: the operator-facing
		// reason snapshots must be retired once pushed.
		if err := PushSnapshotContext(ctx, srv.Addr(), snap); err != nil {
			t.Fatal(err)
		}
		if got := srv.Absorbed(); got != 600 {
			t.Errorf("self merge produced %d reports, want 600", got)
		}
	})
	t.Run("snapshot after identify", func(t *testing.T) {
		if _, err := RequestIdentifyContext(ctx, srv.Addr()); err != nil {
			t.Fatal(err)
		}
		if _, err := RequestSnapshotContext(ctx, srv.Addr()); err == nil {
			t.Error("snapshot of a closed round accepted")
		}
		if err := PushSnapshotContext(ctx, srv.Addr(), snap); err == nil {
			t.Error("merge into a closed round accepted")
		}
	})
}

// TestIdentifyEmptyRound: cmdIdentify with zero absorbed reports is a legal
// degenerate round — the reply is an empty estimate list, not an error, and
// the round closes exactly like a populated one.
func TestIdentifyEmptyRound(t *testing.T) {
	srv := pesServer(t, treeParams(7))
	ctx := context.Background()
	est, err := RequestIdentifyContext(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("identify on an empty round failed: %v", err)
	}
	if len(est) != 0 {
		t.Fatalf("empty round identified %d items", len(est))
	}
	if _, err := RequestIdentifyContext(ctx, srv.Addr()); err == nil {
		t.Error("second identify on the closed empty round accepted")
	}
}

// TestClientDisconnectMidFrame: a batch torn in the middle of a frame keeps
// exactly the complete windows read before the tear — the partial window
// holding the torn frame is never absorbed — gets an ERR reply instead of
// an ack, and the server keeps serving.
func TestClientDisconnectMidFrame(t *testing.T) {
	params := treeParams(17)
	srv := pesServer(t, params)
	const (
		declared = windowFrames + 904 // the header promises two windows' worth
		tornAt   = windowFrames + 404 // the tear lands inside the second window
	)
	wrs := encodeReports(t, treeReports(t, params, tornAt+1))

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Ship every complete frame plus half of a torn one, then stop sending.
	frames := append(wrs[:tornAt:tornAt], wrs[tornAt][:len(wrs[tornAt])/2])
	if _, err := conn.Write(batchMsg(declared, frames...)); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, _ := io.ReadAll(conn)
	if !strings.HasPrefix(string(reply), "ERR ") {
		t.Fatalf("torn batch answered %q, want an ERR reply and no ack", reply)
	}
	if got := srv.Absorbed(); got != windowFrames {
		t.Fatalf("server absorbed %d reports, want the %d-frame complete window before the tear", got, windowFrames)
	}
	// Server is still healthy: snapshot and identify both answer.
	ctx := context.Background()
	if _, err := RequestSnapshotContext(ctx, srv.Addr()); err != nil {
		t.Fatalf("server wedged after torn frame: %v", err)
	}
	if _, err := RequestIdentifyContext(ctx, srv.Addr()); err != nil {
		t.Fatalf("identify failed after torn frame: %v", err)
	}
}

// TestCloseDuringIngestion: Close racing an active mega-batch must wait for
// the in-flight connection, keep every frame of the batch, and not panic or
// deadlock (the sender finishes its batch, reads the ack and hangs up, so
// the handler exits).
func TestCloseDuringIngestion(t *testing.T) {
	params := treeParams(23)
	srv := pesServer(t, params)
	const sent = windowFrames + 512
	wrs := encodeReports(t, treeReports(t, params, sent))

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The header declares the whole batch; its first window is guaranteed
	// in flight before Close starts.
	if _, err := conn.Write(batchMsg(sent, wrs[:windowFrames]...)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && srv.Absorbed() == 0 {
		time.Sleep(2 * time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	// The server is now draining us; finish the batch, collect the ack and
	// disconnect so Close can complete.
	var rest []byte
	for _, wr := range wrs[windowFrames:] {
		rest = append(rest, wr...)
	}
	if _, err := conn.Write(rest); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil || ack[0] != ackByte {
		t.Fatalf("batch racing Close got %q (%v), want the ack", ack[:], err)
	}
	conn.Close()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked against an active ingestion batch")
	}
	if got := srv.Absorbed(); got != sent {
		t.Fatalf("server absorbed %d reports across Close, want %d", got, sent)
	}
	// After Close the listener is gone: new rounds are refused.
	if err := SendWireBatch(context.Background(), srv.Addr(), wrs[:1]); err == nil {
		t.Error("send succeeded after Close")
	}
}
