package main

import (
	"context"
	"encoding/binary"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ldphh"
)

// The traced run hands NewAggregationServer a tracedAgg instead of the bare
// aggregator. These tests pin that the wrapper takes the same server paths:
// checkpoints stamped with the real fingerprint and recoverable by either
// kind of server, snapshot and merge commands answered, and Identify lists
// bit-identical to an unwrapped server's on the same reports.

const (
	testDevices = 40_000
	testBatch   = 1000
)

type testKind struct {
	name   string
	newAgg func(t *testing.T) ldphh.Protocol
	draw   func(*rand.Rand) uint32
}

func testKinds() []testKind {
	dict := make([][]byte, 300)
	for i := range dict {
		dict[i] = itemOf(uint32(i + 1))
	}
	z := newZipf(len(dict), 1.1)
	return []testKind{
		{
			name: "pes",
			newAgg: func(t *testing.T) ldphh.Protocol {
				return mustNew(t, ldphh.PrivateExpanderSketch, ldphh.WithEps(4), ldphh.WithN(testDevices),
					ldphh.WithY(64), ldphh.WithSeed(7))
			},
			draw: func(rng *rand.Rand) uint32 {
				if rng.Float64() < 0.45 {
					return 0xfeedbeef
				}
				return uint32(1 + rng.IntN(1<<20))
			},
		},
		{
			name: "hashtogram",
			newAgg: func(t *testing.T) ldphh.Protocol {
				return mustNew(t, ldphh.KindHashtogram, ldphh.WithEps(4), ldphh.WithN(testDevices),
					ldphh.WithSeed(7), ldphh.WithCandidates(dict))
			},
			draw: func(rng *rand.Rand) uint32 { return uint32(1 + z.sample(rng)) },
		},
	}
}

func mustNew(t *testing.T, kind ldphh.Kind, opts ...ldphh.Option) ldphh.Protocol {
	t.Helper()
	p, err := ldphh.New(kind, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testPopulation(t *testing.T, k testKind) *population {
	t.Helper()
	pop, err := buildPopulation(k.newAgg(t), testDevices, 11, k.draw)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// serve starts a server around agg, wrapped when rec is non-nil.
func serve(t *testing.T, agg ldphh.Aggregator, rec *recorder, opts ...ldphh.ServerOption) *ldphh.Server {
	t.Helper()
	f := &fleet{}
	srv, err := f.serve(rec, "client.start", agg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func send(t *testing.T, ctx context.Context, srv *ldphh.Server, kind ldphh.Kind, slab []byte, frameLen int) {
	t.Helper()
	ing, err := ingest(ctx, kind, []laneTarget{{addr: srv.Addr(), slab: slab}}, testBatch, frameLen, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range ing.errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := srv.Absorbed(), ing.total(); got != want {
		t.Fatalf("server absorbed %d reports, acknowledged %d", got, want)
	}
}

func identify(t *testing.T, ctx context.Context, srv *ldphh.Server) []ldphh.Estimate {
	t.Helper()
	est, err := ldphh.RequestIdentifyContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func spanCount(rec *recorder, name string) int { return len(rec.named(name, -1)) }

func TestWrappedIdentifyMatchesBare(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, k := range testKinds() {
		t.Run(k.name, func(t *testing.T) {
			pop := testPopulation(t, k)
			agg := k.newAgg(t)
			bare := serve(t, agg, nil)
			send(t, ctx, bare, ldphh.Kind(agg.ProtocolID()), pop.slab, pop.frameLen)
			want := identify(t, ctx, bare)
			if len(want) == 0 {
				t.Fatal("bare server identified nothing; the comparison would be vacuous")
			}

			rec := newRecorder()
			wrapped := serve(t, k.newAgg(t), rec)
			send(t, ctx, wrapped, ldphh.Kind(agg.ProtocolID()), pop.slab, pop.frameLen)
			if got := identify(t, ctx, wrapped); !sameEstimates(got, want) {
				t.Fatalf("wrapped server's answer (%d estimates) differs from the bare server's (%d)", len(got), len(want))
			}
			if spanCount(rec, "agg.absorb") == 0 || spanCount(rec, "agg.identify") != 1 {
				t.Fatalf("wrapper recorded %d absorb and %d identify spans", spanCount(rec, "agg.absorb"), spanCount(rec, "agg.identify"))
			}
		})
	}
}

// checkpointFingerprints returns the fingerprint field of every LCKF file
// in dir (magic, version u8, seq u64, nanos u64, then the fingerprint).
func checkpointFingerprints(t *testing.T, dir string) []uint64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var fps []uint64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".lckf") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 29 || string(b[:4]) != "LCKF" {
			t.Fatalf("%s is not an LCKF checkpoint", e.Name())
		}
		fps = append(fps, binary.BigEndian.Uint64(b[21:29]))
	}
	return fps
}

func TestWrappedCheckpointsRecover(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, k := range testKinds() {
		t.Run(k.name, func(t *testing.T) {
			pop := testPopulation(t, k)
			kind := ldphh.Kind(k.newAgg(t).ProtocolID())
			want := func() []ldphh.Estimate {
				srv := serve(t, k.newAgg(t), nil)
				send(t, ctx, srv, kind, pop.slab, pop.frameLen)
				return identify(t, ctx, srv)
			}()
			ckpt := func(dir string) []ldphh.ServerOption {
				return []ldphh.ServerOption{ldphh.WithCheckpointDir(dir),
					ldphh.WithCheckpointEvery(2 * testBatch), ldphh.WithCheckpointInterval(0)}
			}
			// Each writer's checkpoints are recovered by the other kind of
			// server: wrapped to bare and bare to wrapped.
			for _, wrappedWriter := range []bool{true, false} {
				dir := t.TempDir()
				agg := k.newAgg(t)
				var writerRec, readerRec *recorder
				if wrappedWriter {
					writerRec = newRecorder()
				} else {
					readerRec = newRecorder()
				}
				writer := serve(t, agg, writerRec, ckpt(dir)...)
				send(t, ctx, writer, kind, pop.slab, pop.frameLen)
				if err := writer.Shutdown(ctx); err != nil {
					t.Fatal(err)
				}
				fp := agg.(interface{ Fingerprint() uint64 }).Fingerprint()
				fps := checkpointFingerprints(t, dir)
				if len(fps) == 0 {
					t.Fatal("no checkpoint written")
				}
				for _, got := range fps {
					if got != fp {
						t.Fatalf("checkpoint stamped with fingerprint %#x, aggregator states %#x", got, fp)
					}
				}
				if wrappedWriter && spanCount(writerRec, "agg.snapshot") == 0 {
					t.Fatal("wrapped writer recorded no checkpoint snapshot span")
				}
				reader := serve(t, k.newAgg(t), readerRec, ckpt(dir)...)
				if got := reader.Metrics().RecoveredReports(); got != int64(pop.devices()) {
					t.Fatalf("restart recovered %d of %d reports", got, pop.devices())
				}
				if !wrappedWriter && spanCount(readerRec, "agg.restore") != 1 {
					t.Fatal("wrapped reader recorded no restore span")
				}
				if got := identify(t, ctx, reader); !sameEstimates(got, want) {
					t.Fatalf("recovered answer (%d estimates) differs from the uninterrupted one (%d)", len(got), len(want))
				}
			}
		})
	}
}

func TestWrappedSnapshotMerge(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, k := range testKinds() {
		t.Run(k.name, func(t *testing.T) {
			pop := testPopulation(t, k)
			kind := ldphh.Kind(k.newAgg(t).ProtocolID())
			bare := serve(t, k.newAgg(t), nil)
			send(t, ctx, bare, kind, pop.slab, pop.frameLen)
			want := identify(t, ctx, bare)

			rec := newRecorder()
			f := &fleet{}
			for i := 0; i < 3; i++ {
				srv, err := f.serve(rec, "client.start", k.newAgg(t))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
			}
			for leaf := 0; leaf < 2; leaf++ {
				send(t, ctx, f.servers[leaf], kind, pop.lane(leaf, 2), pop.frameLen)
				snap, err := ldphh.RequestSnapshotContext(ctx, f.servers[leaf].Addr())
				if err != nil {
					t.Fatal(err)
				}
				if err := ldphh.PushSnapshotContext(ctx, f.servers[2].Addr(), snap); err != nil {
					t.Fatal(err)
				}
			}
			if got := f.servers[2].Absorbed(); got != pop.devices() {
				t.Fatalf("root holds %d of %d reports after the merges", got, pop.devices())
			}
			if got := identify(t, ctx, f.servers[2]); !sameEstimates(got, want) {
				t.Fatalf("merged root's answer (%d estimates) differs from one bare server's (%d)", len(got), len(want))
			}
			if spanCount(rec, "agg.snapshot") != 2 || spanCount(rec, "agg.merge") != 2 {
				t.Fatalf("wrapper recorded %d snapshot and %d merge spans, want 2 and 2",
					spanCount(rec, "agg.snapshot"), spanCount(rec, "agg.merge"))
			}
		})
	}
}

func TestCoveredUnionsOverlaps(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: 20, End: 30}, {Start: 40, End: 50}}
	if got := covered(spans, 2, 45); got != 13+10+5 {
		t.Fatalf("covered = %d, want 28", got)
	}
}

func TestLinkParentsByContainment(t *testing.T) {
	rec := newRecorder()
	for _, s := range []span{
		{Name: "client.send", Server: 0, Conn: 0, Start: 0, End: 10, Req: 1},
		{Name: "agg.absorb", Server: 0, Start: 2, End: 8},
		{Name: "client.send", Server: 0, Conn: 1, Start: 5, End: 20, Req: 2},
		{Name: "agg.absorb", Server: 0, Start: 12, End: 18},
		{Name: "agg.absorb", Server: 0, Start: 9, End: 19},  // inside the second send only
		{Name: "agg.snapshot", Server: 0, Start: 6, End: 9}, // inside both sends: unattributed
		{Name: "agg.absorb", Server: 1, Start: 6, End: 9},   // another server's
	} {
		rec.add(s)
	}
	rec.link()
	var got []int
	for _, s := range rec.spans {
		if !isClient(s.Name) {
			got = append(got, s.Parent)
		}
	}
	want := []int{0, 2, 2, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parents %v, want %v", got, want)
		}
	}
	if n := len(rec.childrenOf(rec.spans[2])); n != 2 {
		t.Fatalf("second send has %d children, want 2", n)
	}
}
