package ldphh_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ldphh"
	"ldphh/internal/proto"
)

// ordinalItem encodes v as a width-w big-endian item.
func ordinalItem(v uint64, w int) []byte {
	b := make([]byte, w)
	for i := w - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return b
}

// TestNewAllKinds drives every registered protocol kind through the
// functional-options constructor and one in-process round on the unified
// surface: Report → AbsorbBatch → Identify(ctx), with the planted heavy
// item recovered. It also pins each kind's capability story (which kinds
// snapshot/merge, fingerprint, answer continuous queries, run rounds) and
// the adapter contract every kind shares: codec-derived BytesPerReport,
// valid-prefix batch absorption, named rejection of another kind's frame,
// refusal of a payload the kind's decode rejects, a cancelled or failed
// Identify that leaves the round intact, and a successful one that closes
// it.
func TestNewAllKinds(t *testing.T) {
	// Every mergeable kind, and only those, also states a fingerprint.
	mergeableKinds := map[ldphh.Kind]bool{
		ldphh.PrivateExpanderSketch: true,
		ldphh.KindSmallDomain:       true,
		ldphh.KindHashtogram:        true,
		ldphh.KindDirectHistogram:   true,
		ldphh.KindStreamHG:          true,
		ldphh.KindPEM:               true,
		ldphh.KindFedTrie:           true,
	}
	interactiveKinds := map[ldphh.Kind]bool{
		ldphh.KindPEM:     true,
		ldphh.KindFedTrie: true,
	}
	continuousKinds := map[ldphh.Kind]bool{ldphh.KindStreamHG: true}
	// The population-splitting baselines carry a sqrt(n·L)-shaped recovery
	// floor, so they need a larger round for the 40% heavy item to clear it.
	sizeFor := map[ldphh.Kind]int{
		ldphh.KindBitstogram: 20000,
		ldphh.KindTreeHist:   20000,
	}
	heavy := ordinalItem(1, 2)
	for _, kind := range ldphh.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			n := sizeFor[kind]
			if n == 0 {
				n = 6000
			}
			opts := []ldphh.Option{
				ldphh.WithEps(4), ldphh.WithN(n), ldphh.WithItemBytes(2),
				ldphh.WithSeed(99), ldphh.WithDomainSize(64),
			}
			if kind == ldphh.KindHashtogram {
				// Without candidates Identify fails, and closes nothing.
				bare, err := ldphh.New(kind, opts...)
				if err != nil {
					t.Fatal(err)
				}
				wr, err := bare.Report(heavy, 0, rand.New(rand.NewPCG(1, 2)))
				if err != nil {
					t.Fatal(err)
				}
				failedIdentifyKeepsRound(t, bare, wr)
				opts = append(opts, ldphh.WithCandidates([][]byte{heavy, ordinalItem(2, 2)}))
			}
			h, err := ldphh.New(kind, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := ldphh.Kind(h.ProtocolID()); got != kind {
				t.Fatalf("ProtocolID %v, want %v", got, kind)
			}
			codec, _ := proto.Lookup(h.ProtocolID())
			if got := h.BytesPerReport(); got != codec.PayloadBytes {
				t.Fatalf("BytesPerReport %d, codec payload %d", got, codec.PayloadBytes)
			}
			if _, ok := ldphh.AsMergeable(h); ok != mergeableKinds[kind] {
				t.Fatalf("Mergeable = %v, want %v", ok, mergeableKinds[kind])
			}
			if _, ok := ldphh.AsContinuousQuerier(h); ok != continuousKinds[kind] {
				t.Fatalf("ContinuousQuerier = %v, want %v", ok, continuousKinds[kind])
			}
			if _, ok := h.(ldphh.Calibrated); !ok {
				t.Fatal("not Calibrated")
			}
			it, ok := ldphh.AsInteractive(h)
			if ok != interactiveKinds[kind] {
				t.Fatalf("Interactive = %v, want %v", ok, interactiveKinds[kind])
			}

			// A frame of another kind is refused by name, absorbing nothing.
			other := ldphh.KindHashtogram
			if kind == other {
				other = ldphh.PrivateExpanderSketch
			}
			oc, _ := proto.Lookup(byte(other))
			err = h.Absorb(proto.NewWireReport(oc.ID, oc.Version, make([]byte, oc.PayloadBytes)))
			if err == nil || !strings.Contains(err.Error(), codec.Name) || !strings.Contains(err.Error(), oc.Name) {
				t.Fatalf("%s frame: err = %v, want one naming %s and %s", oc.Name, err, oc.Name, codec.Name)
			}
			if got := h.TotalReports(); got != 0 {
				t.Fatalf("refused frame absorbed: TotalReports = %d", got)
			}
			// absorb folds wrs in, first as a batch whose middle frame k
			// carries a wrong version byte: exactly the k frames before it
			// are absorbed and the batch fails. The rest follows cleanly.
			// Before that, a copy of the first frame whose last payload
			// byte is 0xff is refused by the kind's payload decode, the one
			// check a payload gets (an invalid bit byte for nine kinds, an
			// ordinal outside domain 64 for streamhg); the unmodified frame
			// then absorbs with the rest.
			absorb := func(wrs []ldphh.WireReport) {
				bad := append(ldphh.WireReport(nil), wrs[0]...)
				bad[len(bad)-1] = 0xff
				before := h.TotalReports()
				if err := h.Absorb(bad); err == nil {
					t.Fatalf("frame with last payload byte 0xff accepted")
				}
				if got := h.TotalReports(); got != before {
					t.Fatalf("refused payload changed TotalReports from %d to %d", before, got)
				}
				k := len(wrs) / 2
				bad = append(ldphh.WireReport(nil), wrs[k]...)
				bad[1]++
				if err := h.AbsorbBatch(append(append(wrs[:k:k], bad), wrs[k+1:]...)); err == nil {
					t.Fatalf("batch with a version-%d frame at %d accepted", bad[1], k)
				}
				if got := h.TotalReports() - before; got != k {
					t.Fatalf("batch failing at frame %d absorbed %d reports, want %d", k, got, k)
				}
				if err := h.AbsorbBatch(wrs[k:]); err != nil {
					t.Fatal(err)
				}
			}

			// One unified round: the same instance serves both halves here.
			rng := rand.New(rand.NewPCG(3, 4))
			trueHeavy := 0
			itemFor := func(i int) []byte {
				switch {
				case i%10 < 4:
					return heavy
				case i%10 < 7:
					return ordinalItem(2, 2)
				default:
					return ordinalItem(uint64(3+i%32), 2)
				}
			}
			for i := 0; i < n; i++ {
				if bytes.Equal(itemFor(i), heavy) {
					trueHeavy++
				}
			}
			if it != nil {
				// Interactive kinds gate reports by round group: each user
				// reports once, in their own round, against that round's
				// candidate broadcast.
				for rs := it.RoundState(); !rs.Done; rs = it.RoundState() {
					var wrs []ldphh.WireReport
					for i := 0; i < n; i++ {
						wr, err := h.Report(itemFor(i), i, ldphh.RoundRand(99, rs.Round, i))
						if errors.Is(err, ldphh.ErrNotInRound) {
							continue
						}
						if err != nil {
							t.Fatalf("report %d round %d: %v", i, rs.Round, err)
						}
						wrs = append(wrs, wr)
					}
					// Before the final round commits Identify fails, and
					// closes nothing.
					failedIdentifyKeepsRound(t, h, wrs[0])
					absorb(wrs[1:])
					if _, err := it.AdvanceRound(); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				wrs := make([]ldphh.WireReport, n)
				for i := range wrs {
					if wrs[i], err = h.Report(itemFor(i), i, rng); err != nil {
						t.Fatalf("report %d: %v", i, err)
					}
				}
				absorb(wrs)
			}
			if got := h.TotalReports(); got != n {
				t.Fatalf("TotalReports = %d, want %d", got, n)
			}
			// A cancelled Identify fails on entry and leaves the round
			// intact for the next one.
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := h.Identify(cancelled); !errors.Is(err, context.Canceled) {
				t.Fatalf("Identify on a cancelled context: err = %v, want context.Canceled", err)
			}
			if got := h.TotalReports(); got != n {
				t.Fatalf("cancelled Identify changed TotalReports to %d, want %d", got, n)
			}
			m, mergeable := ldphh.AsMergeable(h)
			var snap []byte
			var fp uint64
			if mergeable {
				if snap, err = m.Snapshot(); err != nil {
					t.Fatal(err)
				}
				fp = m.Fingerprint()
			}
			est, err := h.Identify(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, e := range est {
				if bytes.Equal(e.Item, heavy) {
					found = true
				}
			}
			if !found {
				t.Errorf("planted heavy item (%d of %d users) not identified", trueHeavy, n)
			}

			// The first successful Identify closed the round: every call
			// that reads or writes the accumulated state is refused, while
			// the tallies and capability reads keep answering.
			refused := func(call string, err error) {
				t.Helper()
				if !errors.Is(err, ldphh.ErrRoundClosed) {
					t.Errorf("%s after Identify: err = %v, want ErrRoundClosed", call, err)
				}
			}
			own := proto.NewWireReport(codec.ID, codec.Version, make([]byte, codec.PayloadBytes))
			_, err = h.Identify(context.Background())
			refused("Identify", err)
			refused("Absorb", h.Absorb(own))
			refused("AbsorbBatch", h.AbsorbBatch([]ldphh.WireReport{own}))
			if mergeable {
				_, err := m.Snapshot()
				refused("Snapshot", err)
				refused("Restore", m.Restore(snap))
				refused("MergeSnapshot", m.MergeSnapshot(snap))
				if got := m.Fingerprint(); got != fp {
					t.Errorf("Fingerprint after Identify %#x, want %#x", got, fp)
				}
			}
			if got := h.TotalReports(); got != n {
				t.Errorf("TotalReports after Identify = %d, want %d", got, n)
			}
			if h.SketchBytes() <= 0 || h.BytesPerReport() != codec.PayloadBytes || h.ProtocolID() != codec.ID {
				t.Error("Table 1 reads changed after Identify")
			}
			if f := h.(ldphh.Calibrated).MinRecoverableFrequency(); !(f > 0) {
				t.Errorf("MinRecoverableFrequency after Identify = %v", f)
			}
			if cq, ok := ldphh.AsContinuousQuerier(h); ok {
				if _, err := cq.QueryTopK(context.Background(), 0); err != nil {
					t.Errorf("QueryTopK after Identify: %v", err)
				}
				if st := cq.StreamStats(); st.TopK == 0 {
					t.Errorf("StreamStats after Identify = %+v", st)
				}
			}
			if it != nil && !it.RoundState().Done {
				t.Error("RoundState after Identify is not Done")
			}
		})
	}
}

// TestIdentifyConcurrentAllKinds races one Identify against several
// goroutines' AbsorbBatch calls on every kind. A batch either lands whole
// or is refused whole with ErrRoundClosed, so TotalReports equals the
// frames of the accepted batches. The interactive kinds cannot identify
// while a round is open: there Identify fails, closes nothing, and every
// batch lands.
func TestIdentifyConcurrentAllKinds(t *testing.T) {
	const (
		n       = 4096
		senders = 4
		batches = 8
	)
	for _, kind := range ldphh.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			opts := []ldphh.Option{
				ldphh.WithEps(4), ldphh.WithN(n), ldphh.WithItemBytes(2),
				ldphh.WithSeed(7), ldphh.WithDomainSize(64),
			}
			if kind == ldphh.KindHashtogram {
				opts = append(opts, ldphh.WithCandidates([][]byte{ordinalItem(1, 2)}))
			}
			h, err := ldphh.New(kind, opts...)
			if err != nil {
				t.Fatal(err)
			}
			_, interactive := ldphh.AsInteractive(h)
			var frames []ldphh.WireReport
			for i := 0; i < n; i++ {
				rng := ldphh.RoundRand(7, 0, i)
				wr, err := h.Report(ordinalItem(uint64(1+i%8), 2), i, rng)
				if errors.Is(err, ldphh.ErrNotInRound) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				frames = append(frames, wr)
			}
			size := (len(frames) + senders*batches - 1) / (senders * batches)

			var accepted atomic.Int64
			var wg sync.WaitGroup
			start := make(chan struct{})
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					<-start
					for b := s * batches; b < (s+1)*batches && b*size < len(frames); b++ {
						batch := frames[b*size : min((b+1)*size, len(frames))]
						switch err := h.AbsorbBatch(batch); {
						case err == nil:
							accepted.Add(int64(len(batch)))
						case !errors.Is(err, ldphh.ErrRoundClosed):
							t.Errorf("AbsorbBatch: %v", err)
						}
					}
				}(s)
			}
			identified := make(chan error, 1)
			go func() {
				<-start
				_, err := h.Identify(context.Background())
				identified <- err
			}()
			close(start)
			wg.Wait()
			err = <-identified
			switch {
			case interactive && (err == nil || errors.Is(err, ldphh.ErrRoundClosed)):
				t.Fatalf("Identify with a round open: err = %v, want a failure that closes nothing", err)
			case interactive && accepted.Load() != int64(len(frames)):
				t.Fatalf("accepted %d of %d frames with the round open", accepted.Load(), len(frames))
			case !interactive && err != nil:
				t.Fatal(err)
			}
			if got := h.TotalReports(); int64(got) != accepted.Load() {
				t.Fatalf("TotalReports = %d, accepted batches carried %d frames", got, accepted.Load())
			}
		})
	}
}

// failedIdentifyKeepsRound checks that an Identify on h fails and closes
// nothing: wr, one of h's own frames, is absorbed afterwards and h still
// snapshots when it can.
func failedIdentifyKeepsRound(t *testing.T, h ldphh.Protocol, wr ldphh.WireReport) {
	t.Helper()
	if _, err := h.Identify(context.Background()); err == nil || errors.Is(err, ldphh.ErrRoundClosed) {
		t.Fatalf("Identify: err = %v, want a failure that leaves the round open", err)
	}
	before := h.TotalReports()
	if err := h.Absorb(wr); err != nil {
		t.Fatalf("Absorb after a failed Identify: %v", err)
	}
	if got := h.TotalReports(); got != before+1 {
		t.Fatalf("TotalReports %d after absorbing one report onto %d", got, before)
	}
	if m, ok := ldphh.AsMergeable(h); ok {
		if _, err := m.Snapshot(); err != nil {
			t.Fatalf("Snapshot after a failed Identify: %v", err)
		}
	}
}

// FuzzAbsorbFrame drives arbitrary bytes, behind each kind's protocol ID,
// through AbsorbBatch on one aggregator of each of the ten kinds. The
// adapter's header check and the kind's payload decode are the only checks
// a frame gets, so this is the fuzz over every real decoder. Invariants:
// no panic; a refused frame leaves TotalReports unchanged; an accepted
// frame is exactly 2 + BytesPerReport bytes and adds one report.
func FuzzAbsorbFrame(f *testing.F) {
	kinds := ldphh.Kinds()
	aggs := make([]ldphh.Protocol, len(kinds))
	for i, kind := range kinds {
		h, err := ldphh.New(kind, pinnedOptions(kind)...)
		if err != nil {
			f.Fatal(err)
		}
		aggs[i] = h
		// Seed one real frame per kind, minus the ID byte the target
		// prepends. The interactive kinds report only in their user's
		// round, so take the first user of round 0.
		rng := rand.New(rand.NewPCG(5, 6))
		for u := 0; ; u++ {
			wr, err := h.Report(ordinalItem(1, 2), u, rng)
			if errors.Is(err, ldphh.ErrNotInRound) {
				continue
			}
			if err != nil {
				f.Fatal(err)
			}
			f.Add([]byte(wr[1:]))
			break
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, h := range aggs {
			frame := append(ldphh.WireReport{h.ProtocolID()}, data...)
			before := h.TotalReports()
			err := h.AbsorbBatch([]ldphh.WireReport{frame})
			added := h.TotalReports() - before
			if err != nil {
				if added != 0 {
					t.Fatalf("%v: refused frame changed TotalReports by %d", kinds[i], added)
				}
				continue
			}
			if want := 2 + h.BytesPerReport(); len(frame) != want {
				t.Fatalf("%v: accepted a %d-byte frame, want %d", kinds[i], len(frame), want)
			}
			if added != 1 {
				t.Fatalf("%v: accepted frame added %d reports, want 1", kinds[i], added)
			}
		}
	})
}

// TestFingerprintsPinned pins every fingerprinted kind's parameter digest
// at one option set. Checkpoint files are stamped with these digests, so a
// changed value would strand every existing checkpoint.
func TestFingerprintsPinned(t *testing.T) {
	want := map[ldphh.Kind]uint64{
		ldphh.PrivateExpanderSketch: 0x4e805542222f7573,
		ldphh.KindSmallDomain:       0xf7170952b5be6640,
		ldphh.KindHashtogram:        0x8d02cad2dc3f013f,
		ldphh.KindDirectHistogram:   0xaa78ab59826d29d6,
		ldphh.KindStreamHG:          0x28a5bfaef78da997,
		ldphh.KindPEM:               0xd5fa2683b0f7b8c0,
		ldphh.KindFedTrie:           0xcbd621da908fc50a,
	}
	for kind, fp := range want {
		h, err := ldphh.New(kind, pinnedOptions(kind)...)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		f, ok := ldphh.AsMergeable(h)
		if !ok {
			t.Fatalf("%v states no fingerprint", kind)
		}
		if got := f.Fingerprint(); got != fp {
			t.Errorf("%v fingerprint %#016x, want %#016x", kind, got, fp)
		}
	}
}

// TestFingerprintsPinnedWide pins the digests where the derived parameters
// take the branches TestFingerprintsPinned's 2-byte, N 6000 set does not
// reach: g's independence log2|X|/4 above its floor of 8 (8-byte PES
// items) and a fedtrie survivor cap of 4·⌈√N⌉ = 4000 at N 10^6.
func TestFingerprintsPinnedWide(t *testing.T) {
	for _, c := range []struct {
		kind ldphh.Kind
		opts []ldphh.Option
		want uint64
	}{
		{ldphh.PrivateExpanderSketch, []ldphh.Option{ldphh.WithEps(4), ldphh.WithN(100000),
			ldphh.WithItemBytes(8), ldphh.WithY(16), ldphh.WithSeed(99)}, 0xa956a14e97287ae3},
		{ldphh.KindPEM, []ldphh.Option{ldphh.WithEps(4), ldphh.WithN(1000000),
			ldphh.WithItemBytes(4), ldphh.WithSeed(99)}, 0x9c2c99d18de70b16},
		{ldphh.KindFedTrie, []ldphh.Option{ldphh.WithEps(4), ldphh.WithN(1000000),
			ldphh.WithItemBytes(4), ldphh.WithSeed(99)}, 0x1a070f9a8ae9e19e},
	} {
		h, err := ldphh.New(c.kind, c.opts...)
		if err != nil {
			t.Fatalf("%v: %v", c.kind, err)
		}
		f, _ := ldphh.AsMergeable(h)
		if got := f.Fingerprint(); got != c.want {
			t.Errorf("%v fingerprint %#016x, want %#016x", c.kind, got, c.want)
		}
	}
}

// TestKindNamesRoundTrip pins the flag-facing names and their parsing.
func TestKindNamesRoundTrip(t *testing.T) {
	want := map[ldphh.Kind]string{
		ldphh.PrivateExpanderSketch: "pes",
		ldphh.KindSmallDomain:       "smalldomain",
		ldphh.KindHashtogram:        "hashtogram",
		ldphh.KindDirectHistogram:   "directhistogram",
		ldphh.KindBitstogram:        "bitstogram",
		ldphh.KindTreeHist:          "treehist",
		ldphh.KindBassilySmith:      "bassilysmith",
		ldphh.KindStreamHG:          "streamhg",
		ldphh.KindPEM:               "pem",
		ldphh.KindFedTrie:           "fedtrie",
	}
	if got := len(ldphh.Kinds()); got != len(want) {
		t.Fatalf("%d registered kinds, want %d", got, len(want))
	}
	for kind, name := range want {
		if kind.String() != name {
			t.Errorf("%v.String() = %q, want %q", kind, kind.String(), name)
		}
		parsed, err := ldphh.ParseKind(name)
		if err != nil {
			t.Errorf("ParseKind(%q): %v", name, err)
		} else if parsed != kind {
			t.Errorf("ParseKind(%q) = %v, want %v", name, parsed, kind)
		}
	}
	if _, err := ldphh.ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted an unknown name")
	}
}

// TestNewValidation pins the constructor's error paths.
func TestNewValidation(t *testing.T) {
	if _, err := ldphh.New(ldphh.Kind(0x7f), ldphh.WithEps(1), ldphh.WithN(10)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ldphh.New(ldphh.PrivateExpanderSketch, ldphh.WithN(100)); err == nil {
		t.Error("missing eps accepted")
	}
	// Wide items with no explicit domain cannot be enumerated.
	if _, err := ldphh.New(ldphh.KindBassilySmith,
		ldphh.WithEps(1), ldphh.WithN(100), ldphh.WithItemBytes(4)); err == nil {
		t.Error("4-byte bassilysmith without WithDomainSize accepted")
	}
	// With an explicit domain it works.
	if _, err := ldphh.New(ldphh.KindBassilySmith,
		ldphh.WithEps(1), ldphh.WithN(100), ldphh.WithItemBytes(4), ldphh.WithDomainSize(512)); err != nil {
		t.Errorf("explicit domain rejected: %v", err)
	}
}

// TestCandidatesConsumption pins which kinds consume WithCandidates and
// which reject it: the candidate-based oracle kinds estimate exactly the
// supplied dictionary, the open-domain interactive kinds refuse the option
// outright (they discover candidates round by round), and everything else
// ignores it.
func TestCandidatesConsumption(t *testing.T) {
	cands := [][]byte{ordinalItem(1, 2), ordinalItem(2, 2)}
	for _, kind := range ldphh.Kinds() {
		h, err := ldphh.New(kind,
			ldphh.WithEps(2), ldphh.WithN(1000), ldphh.WithItemBytes(2),
			ldphh.WithDomainSize(32), ldphh.WithCandidates(cands))
		switch kind {
		case ldphh.KindPEM, ldphh.KindFedTrie:
			if err == nil || !strings.Contains(err.Error(), "WithCandidates") {
				t.Errorf("%v with candidates = %v, want a WithCandidates rejection", kind, err)
			}
		case ldphh.KindHashtogram:
			if err != nil {
				t.Fatalf("hashtogram with candidates: %v", err)
			}
			// The consumer: Identify's support is exactly the dictionary.
			rng := rand.New(rand.NewPCG(5, 6))
			for i := 0; i < 1000; i++ {
				wr, err := h.Report(cands[i%2], i, rng)
				if err != nil {
					t.Fatal(err)
				}
				if err := h.Absorb(wr); err != nil {
					t.Fatal(err)
				}
			}
			est, err := h.Identify(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range est {
				if !bytes.Equal(e.Item, cands[0]) && !bytes.Equal(e.Item, cands[1]) {
					t.Errorf("hashtogram estimated %x outside the candidate dictionary", e.Item)
				}
			}
		default:
			if err != nil {
				t.Errorf("%v must ignore WithCandidates, got %v", kind, err)
			}
		}
	}
}

// TestFacadeGenericServer runs one non-PES protocol end to end through the
// public facade: New → NewAggregationServer → SendWireReports →
// RequestIdentifyContext.
func TestFacadeGenericServer(t *testing.T) {
	const n = 3000
	mk := func() ldphh.Protocol {
		h, err := ldphh.New(ldphh.KindSmallDomain,
			ldphh.WithEps(4), ldphh.WithN(n), ldphh.WithItemBytes(2), ldphh.WithDomainSize(32))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	device, agg := mk(), mk()
	srv, err := ldphh.NewAggregationServer(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rng := rand.New(rand.NewPCG(8, 8))
	heavy := ordinalItem(3, 2)
	reports := make([]ldphh.WireReport, n)
	for i := range reports {
		item := ordinalItem(uint64(i%8), 2)
		if i%2 == 0 {
			item = heavy
		}
		if reports[i], err = device.Report(item, i, rng); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := ldphh.SendWireReports(ctx, srv.Addr(), reports); err != nil {
		t.Fatal(err)
	}
	if got := srv.Absorbed(); got != n {
		t.Fatalf("server absorbed %d of %d", got, n)
	}
	est, err := ldphh.RequestIdentifyContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(est) == 0 || !bytes.Equal(est[0].Item, heavy) {
		t.Fatalf("top estimate %+v, want heavy item %x", est, heavy)
	}
}
