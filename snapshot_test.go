package ldphh_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ldphh"
	"ldphh/internal/blobv1"
	"ldphh/internal/checkpoint"
)

// pinnedOptions is the option set TestFingerprintsPinned pins the
// fingerprints at.
func pinnedOptions(kind ldphh.Kind) []ldphh.Option {
	opts := []ldphh.Option{
		ldphh.WithEps(4), ldphh.WithN(6000), ldphh.WithItemBytes(2),
		ldphh.WithSeed(99), ldphh.WithDomainSize(64),
	}
	if kind == ldphh.KindHashtogram {
		opts = append(opts, ldphh.WithCandidates([][]byte{ordinalItem(1, 2)}))
	}
	return opts
}

// snapshotKinds are the seven Mergeable kinds.
var snapshotKinds = []ldphh.Kind{
	ldphh.PrivateExpanderSketch, ldphh.KindSmallDomain, ldphh.KindHashtogram,
	ldphh.KindDirectHistogram, ldphh.KindStreamHG, ldphh.KindPEM, ldphh.KindFedTrie,
}

// compatReports is the fixed report set the read-compat digests were
// taken over: 3000 users, 40% holding item 1 and 30% item 2, the rest
// spread over 53 tail items. The interactive kinds keep only round 0's
// group.
func compatReports(t testing.TB, h ldphh.Protocol) []ldphh.WireReport {
	t.Helper()
	rng := rand.New(rand.NewPCG(2024, 16))
	var wrs []ldphh.WireReport
	for i := 0; i < 3000; i++ {
		v := uint64(3 + i%53)
		switch {
		case i%10 < 4:
			v = 1
		case i%10 < 7:
			v = 2
		}
		wr, err := h.Report(ordinalItem(v, 2), i, rng)
		if errors.Is(err, ldphh.ErrNotInRound) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		wrs = append(wrs, wr)
	}
	return wrs
}

// compatFixture builds a kind at the pinned options and absorbs the fixed
// report set.
func compatFixture(t testing.TB, kind ldphh.Kind) ldphh.Protocol {
	t.Helper()
	h, err := ldphh.New(kind, pinnedOptions(kind)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AbsorbBatch(compatReports(t, h)); err != nil {
		t.Fatal(err)
	}
	return h
}

// v1Snapshots are the SHA-256 digests of the pre-envelope (v1) snapshots
// the compatFixture aggregators wrote before the snapshot envelope
// existed. The blobs are rebuilt rather than committed (PES's is 33.6 MB).
// Smalldomain and directhistogram wrote identical bytes: the LDSK body
// carries neither the kind nor the item width, which is why their
// snapshots now travel in an envelope.
var v1Snapshots = map[ldphh.Kind]string{
	ldphh.PrivateExpanderSketch: "8d392007d37f7dce42f7e3ec62931dfaeb970c804578bd162bb72bcc560716ef",
	ldphh.KindSmallDomain:       "61dd81eac1d2725fed1ff84f1e4fb7ba5944caf9b6b695ee0b7b9e04bbb7190e",
	ldphh.KindHashtogram:        "5481532aba6fada08e50f58a4eb27c242f28090bd1d916e8daf0bdddaffaf0f7",
	ldphh.KindDirectHistogram:   "61dd81eac1d2725fed1ff84f1e4fb7ba5944caf9b6b695ee0b7b9e04bbb7190e",
	ldphh.KindStreamHG:          "aa88d083398473fe8d9ff06d8337829a72f3291211111a59f9bc6ade69bdcc9c",
	ldphh.KindPEM:               "630b5a1e1f3916d045eba069036efaf57e24f291237a31706748543ddbfe8793",
	ldphh.KindFedTrie:           "27440c598df3936973782a8f212ac85ac005405399844ed80ae274efe0f0c2f3",
}

// v1Snapshot rebuilds a kind's pre-envelope snapshot from an envelope
// snapshot: the kind's v1 header followed by the body, with every nested
// oracle blob rewritten to version 1, the only one they wrote then.
func v1Snapshot(kind ldphh.Kind, snap []byte, fp uint64) []byte {
	body := blobv1.Snapshot(snap)[14:] // after the "LSNP" | version | ID | fingerprint envelope
	return append(preEnvelopeHeader(kind, fp), body...)
}

// preEnvelopeHeader is the header a kind's pre-envelope snapshot carries
// before its body; the oracle kinds' bodies carry their own.
func preEnvelopeHeader(kind ldphh.Kind, fp uint64) []byte {
	switch kind {
	case ldphh.PrivateExpanderSketch:
		return binary.BigEndian.AppendUint64([]byte("LPSK\x01"), fp)
	case ldphh.KindStreamHG:
		return []byte("LSGK\x01")
	case ldphh.KindPEM, ldphh.KindFedTrie:
		return binary.BigEndian.AppendUint64([]byte("LIRK\x01"), fp)
	}
	return nil
}

// TestRecoveryReadsPreEnvelopeCheckpoints proves checkpoints written
// before the snapshot envelope still recover: for each of the seven
// Mergeable kinds the v1 snapshot is rebuilt byte for byte (pinned by
// digest), saved as an LCKF checkpoint under the aggregator's fingerprint,
// and a server started over that directory recovers the uninterrupted
// aggregator's state — its report count, and its Identify output (the
// round state for the interactive kinds). MergeSnapshot refuses the same
// bytes: pre-envelope snapshots load, they do not merge.
func TestRecoveryReadsPreEnvelopeCheckpoints(t *testing.T) {
	ctx := context.Background()
	for _, kind := range snapshotKinds {
		t.Run(kind.String(), func(t *testing.T) {
			ref := compatFixture(t, kind)
			m, _ := ldphh.AsMergeable(ref)
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			v1 := v1Snapshot(kind, snap, m.Fingerprint())
			sum := sha256.Sum256(v1)
			if got := hex.EncodeToString(sum[:]); got != v1Snapshots[kind] {
				t.Fatalf("rebuilt v1 snapshot digest %s, want %s", got, v1Snapshots[kind])
			}

			dir := t.TempDir()
			mgr, err := checkpoint.Open(dir, checkpoint.WithFingerprint(m.Fingerprint()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mgr.Save(v1); err != nil {
				t.Fatal(err)
			}
			agg, err := ldphh.New(kind, pinnedOptions(kind)...)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := ldphh.NewAggregationServer(agg, "127.0.0.1:0",
				ldphh.WithCheckpointDir(dir), ldphh.WithCheckpointInterval(0))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if got, want := srv.Metrics().RecoveredReports(), int64(ref.TotalReports()); got != want {
				t.Fatalf("recovered %d reports, want %d", got, want)
			}
			if it, ok := ldphh.AsInteractive(ref); ok {
				got, err := ldphh.RequestRoundContext(ctx, srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				if want := it.RoundState(); !reflect.DeepEqual(got, want) {
					t.Fatalf("recovered round state %+v, want %+v", got, want)
				}
			} else {
				got, err := ldphh.RequestIdentifyContext(ctx, srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Identify(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatal("uninterrupted run identified nothing; the comparison would be vacuous")
				}
				if len(got) != len(want) {
					t.Fatalf("recovered Identify returned %d estimates, want %d", len(got), len(want))
				}
				for i := range got {
					if !bytes.Equal(got[i].Item, want[i].Item) || got[i].Count != want[i].Count {
						t.Fatalf("rank %d: recovered %x/%v, want %x/%v", i, got[i].Item, got[i].Count, want[i].Item, want[i].Count)
					}
				}
			}

			fresh, err := ldphh.New(kind, pinnedOptions(kind)...)
			if err != nil {
				t.Fatal(err)
			}
			fm, _ := ldphh.AsMergeable(fresh)
			if err := fm.MergeSnapshot(v1); err == nil {
				t.Fatal("MergeSnapshot accepted a pre-envelope snapshot")
			}
			if fresh.TotalReports() != 0 {
				t.Fatalf("refused merge left %d reports behind", fresh.TotalReports())
			}
		})
	}
}

// fuzzOptions are small configurations of the seven Mergeable kinds, so
// one fuzz execution restores into all of them cheaply.
func fuzzOptions(kind ldphh.Kind) []ldphh.Option {
	opts := []ldphh.Option{ldphh.WithEps(1), ldphh.WithN(50), ldphh.WithItemBytes(1), ldphh.WithSeed(9), ldphh.WithDomainSize(16)}
	if kind == ldphh.PrivateExpanderSketch {
		opts = append(opts, ldphh.WithY(2))
	}
	return opts
}

// FuzzSnapshotEnvelope drives arbitrary bytes through Restore on one
// aggregator of each of the seven Mergeable kinds. Invariants: no panic;
// a failed Restore leaves TotalReports unchanged; an accepted input is
// written again by Snapshot: an envelope over version 2 blobs byte for
// byte, and any other input (pre-envelope, or nesting version 1 blobs)
// once it carries the envelope and both have every blob rewritten to
// version 1. Restore is atomic, which is what makes reusing the
// aggregators across executions sound.
func FuzzSnapshotEnvelope(f *testing.F) {
	type target struct {
		kind ldphh.Kind
		agg  ldphh.Protocol
		m    ldphh.Mergeable
	}
	targets := make([]target, len(snapshotKinds))
	for i, kind := range snapshotKinds {
		agg, err := ldphh.New(kind, fuzzOptions(kind)...)
		if err != nil {
			f.Fatal(err)
		}
		m, _ := ldphh.AsMergeable(agg)
		targets[i] = target{kind, agg, m}

		// Seeds: a real snapshot with absorbed reports (the only way to get
		// the right fingerprint in), and bit flips at the envelope fields
		// (0, 4, 5, 6) and across the start of the body (14 on).
		leaf, err := ldphh.New(kind, fuzzOptions(kind)...)
		if err != nil {
			f.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(1, 2))
		for u := 0; u < 40; u++ {
			wr, err := leaf.Report([]byte{byte(u % 5)}, u, rng)
			if errors.Is(err, ldphh.ErrNotInRound) {
				continue
			}
			if err != nil {
				f.Fatal(err)
			}
			if err := leaf.Absorb(wr); err != nil {
				f.Fatal(err)
			}
		}
		lm, _ := ldphh.AsMergeable(leaf)
		snap, err := lm.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		if cap(snap) != len(snap) {
			f.Fatalf("%v snapshot of %d bytes was built in a buffer of %d", kind, len(snap), cap(snap))
		}
		f.Add(snap)
		f.Add(blobv1.Snapshot(snap))
		f.Add(snap[:13])
		for _, off := range []int{0, 4, 5, 6, 13, 14, 15, 17, 18, 22, 26, 30} {
			if off < len(snap) {
				mut := append([]byte(nil), snap...)
				mut[off] ^= 0x80
				f.Add(mut)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tg := range targets {
			before := tg.agg.TotalReports()
			if err := tg.m.Restore(data); err != nil {
				if got := tg.agg.TotalReports(); got != before {
					t.Fatalf("%v: failed Restore changed TotalReports from %d to %d", tg.kind, before, got)
				}
				continue
			}
			out, err := tg.m.Snapshot()
			if err != nil {
				t.Fatalf("%v: accepted snapshot failed to re-serialize: %v", tg.kind, err)
			}
			if !blobv1.Reserialized(data, out, len(preEnvelopeHeader(tg.kind, tg.m.Fingerprint()))) {
				t.Fatalf("%v: snapshot not canonical: %d bytes in, %d bytes out", tg.kind, len(data), len(out))
			}
		}
	})
}

// TestOracleSnapshotsLoadFromSnapshotBytes pins the memory cost of loading
// the three kinds whose snapshot body is one oracle blob (LHSK for
// hashtogram, LDSK for directhistogram and smalldomain, here at domain
// 2^16): MergeSnapshot and Restore check the blob in place and add its
// counters straight from the snapshot bytes, so each allocates a small
// fraction of the snapshot it reads, where a decoded copy would allocate
// all of it again.
func TestOracleSnapshotsLoadFromSnapshotBytes(t *testing.T) {
	for _, kind := range []ldphh.Kind{ldphh.KindHashtogram, ldphh.KindDirectHistogram, ldphh.KindSmallDomain} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := pinnedOptions(kind)
			if kind != ldphh.KindHashtogram {
				opts = append(opts, ldphh.WithDomainSize(1<<16))
			}
			leaf, err := ldphh.New(kind, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := leaf.AbsorbBatch(compatReports(t, leaf)); err != nil {
				t.Fatal(err)
			}
			lm, _ := ldphh.AsMergeable(leaf)
			snap, err := lm.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			root, err := ldphh.New(kind, opts...)
			if err != nil {
				t.Fatal(err)
			}
			rm, _ := ldphh.AsMergeable(root)
			for _, load := range []struct {
				name string
				call func([]byte) error
			}{{"MergeSnapshot", rm.MergeSnapshot}, {"Restore", rm.Restore}} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := load.call(snap); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(snap)/16); got >= limit {
					t.Errorf("%s of a %d-byte snapshot allocated %d bytes, want under %d", load.name, len(snap), got, limit)
				}
			}
			if got, want := root.TotalReports(), leaf.TotalReports(); got != want {
				t.Fatalf("root holds %d reports after the restore, want %d", got, want)
			}
		})
	}
}

// TestSnapshotSizeFollowsReports pins the size of the kinds whose
// snapshots nest oracle blobs: the blobs write only their nonzero cells,
// and each report moves a cell or two, so an empty aggregator's snapshot
// is under 1 KiB and absorbing compatReports grows it by at most 16 bytes
// per report.
func TestSnapshotSizeFollowsReports(t *testing.T) {
	for _, kind := range []ldphh.Kind{
		ldphh.PrivateExpanderSketch, ldphh.KindHashtogram, ldphh.KindDirectHistogram,
		ldphh.KindSmallDomain, ldphh.KindPEM, ldphh.KindFedTrie,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			size := func(h ldphh.Protocol) int {
				m, _ := ldphh.AsMergeable(h)
				snap, err := m.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				return len(snap)
			}
			empty, err := ldphh.New(kind, pinnedOptions(kind)...)
			if err != nil {
				t.Fatal(err)
			}
			full := compatFixture(t, kind)
			before, after, reports := size(empty), size(full), full.TotalReports()
			t.Logf("%d bytes empty, %d after %d reports", before, after, reports)
			if before >= 1<<10 {
				t.Errorf("empty snapshot is %d bytes, want under 1 KiB", before)
			}
			if after-before > 16*reports {
				t.Errorf("%d reports grew the snapshot from %d to %d bytes, more than 16 per report", reports, before, after)
			}
		})
	}
}

// TestRoundSnapshotsMergeFromSnapshotBytes pins the memory cost of a pem
// or fedtrie MergeSnapshot: the round's candidates and LDSK blob stay
// views into the snapshot, the candidates are compared with the live
// round in place and the blob is checked against the round oracle's shape
// without building one, then added into the live oracle. So a merge
// allocates fewer objects than the snapshot has candidates, where copying
// them would allocate one each.
func TestRoundSnapshotsMergeFromSnapshotBytes(t *testing.T) {
	for _, kind := range []ldphh.Kind{ldphh.KindPEM, ldphh.KindFedTrie} {
		t.Run(kind.String(), func(t *testing.T) {
			leaf := compatFixture(t, kind)
			lm, _ := ldphh.AsMergeable(leaf)
			snap, err := lm.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			it, _ := ldphh.AsInteractive(leaf)
			cands := len(it.RoundState().Candidates)
			root, err := ldphh.New(kind, pinnedOptions(kind)...)
			if err != nil {
				t.Fatal(err)
			}
			rm, _ := ldphh.AsMergeable(root)
			allocs := testing.AllocsPerRun(10, func() {
				if err := rm.MergeSnapshot(snap); err != nil {
					t.Fatal(err)
				}
			})
			if allocs >= float64(cands) {
				t.Errorf("MergeSnapshot of a %d-candidate snapshot allocated %.0f objects, want fewer than %d",
					cands, allocs, cands)
			}
			if got, want := root.TotalReports(), 11*leaf.TotalReports(); got != want {
				t.Fatalf("root holds %d reports after 11 merges, want %d", got, want)
			}
		})
	}
}

// TestRoundSnapshotCountsSizedByBytes pins that a pem or fedtrie snapshot
// body sizes its candidate and estimate lists by the bytes that hold them:
// a 39-byte open-round snapshot claiming 2^22−1 candidates (MergeSnapshot)
// and a 47-byte done snapshot claiming 2^22 estimates (Restore) are
// refused without allocating for the claim.
func TestRoundSnapshotCountsSizedByBytes(t *testing.T) {
	for _, kind := range []ldphh.Kind{ldphh.KindPEM, ldphh.KindFedTrie} {
		root, err := ldphh.New(kind, pinnedOptions(kind)...)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := ldphh.AsMergeable(root)
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		envelope := snap[:14] // "LSNP" | version | ID | fingerprint
		// round u32 | done u8 | roundReports u64 | absorbed u64 | candCount u32
		openBody := binary.BigEndian.AppendUint32(make([]byte, 21), 1<<22-1)
		doneBody := make([]byte, 25+4) // done, no candidates, empty oracle blob
		doneBody[4] = 1
		doneBody = binary.BigEndian.AppendUint32(doneBody, 1<<22) // estCount
		for _, c := range []struct {
			name, want string
			load       func([]byte) error
			body       []byte
		}{
			{"candidates", "candidate 0 truncated", m.MergeSnapshot, openBody},
			{"estimates", "estimate 0 truncated", m.Restore, doneBody},
		} {
			t.Run(kind.String()+"/"+c.name, func(t *testing.T) {
				hostile := append(append([]byte(nil), envelope...), c.body...)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := c.load(hostile)
				runtime.ReadMemStats(&after)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("%d-byte snapshot: err = %v, want %q", len(hostile), err, c.want)
				}
				if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
					t.Errorf("refusing a %d-byte snapshot allocated %d bytes, want under 1 MiB", len(hostile), got)
				}
			})
		}
	}
}

// TestMergeSnapshotConcurrentAllKinds merges one leaf snapshot from three
// goroutines while a fourth absorbs reports, for each of the seven kinds:
// snapshot bodies decode outside the adapter lock, so under -race this
// checks that decoding reads only construction-time state.
func TestMergeSnapshotConcurrentAllKinds(t *testing.T) {
	for _, kind := range snapshotKinds {
		t.Run(kind.String(), func(t *testing.T) {
			leaf := compatFixture(t, kind)
			lm, _ := ldphh.AsMergeable(leaf)
			snap, err := lm.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			root, err := ldphh.New(kind, pinnedOptions(kind)...)
			if err != nil {
				t.Fatal(err)
			}
			rm, _ := ldphh.AsMergeable(root)
			reports := compatReports(t, root)
			const merges = 3
			errs := make(chan error, merges+1)
			for i := 0; i < merges; i++ {
				go func() { errs <- rm.MergeSnapshot(snap) }()
			}
			go func() { errs <- root.AbsorbBatch(reports) }()
			for i := 0; i < merges+1; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if got, want := root.TotalReports(), merges*leaf.TotalReports()+len(reports); got != want {
				t.Fatalf("root holds %d reports, want %d", got, want)
			}
		})
	}
}
