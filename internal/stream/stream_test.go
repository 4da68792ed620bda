package stream

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"ldphh/internal/ldp"
	"ldphh/internal/proto"
)

// testParams returns a small BasicHG configuration the edge-case tests
// share; callers override fields before New.
func testParams() Params {
	return Params{
		Kind: BasicHG, Eps: 4, Windows: 4, K: 8, Domain: 256,
		WindowSize: 1000, WarmupWindows: 1, Seed: 11,
	}
}

// newTestWire wraps a fresh aggregator in the wire adapter, whose
// proto.StateAdapter is the snapshot surface; domains up to 256 fit one
// item byte.
func newTestWire(t *testing.T, p Params) *Wire {
	t.Helper()
	w, err := NewWire(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// bodyOff is where a snapshot body starts: after the 14-byte envelope
// header. The state payload (counts or cells) follows the parameter and
// clock sections.
const (
	bodyOff    = 14
	payloadOff = bodyOff + paramsLen + clocksLen
)

// zipfStream draws n items from a zipf(s) distribution over [0, domain) and
// returns the randomized reports plus the true histogram.
func zipfStream(t *testing.T, a *Aggregator, n int, s float64, seed uint64) []int {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	z := rand.NewZipf(rng, s, 1, uint64(a.p.Domain-1))
	truth := make([]int, a.p.Domain)
	for i := 0; i < n; i++ {
		x := uint32(z.Uint64())
		truth[x]++
		if err := a.Absorb(uint32(a.rr.Sample(uint64(x), rng))); err != nil {
			t.Fatalf("absorb %d: %v", i, err)
		}
	}
	return truth
}

func TestZeroWidthWindowRejected(t *testing.T) {
	for _, w := range []int{0, -1} {
		p := testParams()
		p.Windows = w
		if _, err := New(p); err == nil {
			t.Errorf("Windows = %d accepted", w)
		}
	}
	// The other validation gates, while we are here.
	bad := []func(*Params){
		func(p *Params) { p.Eps = 0 },
		func(p *Params) { p.K = 0 },
		func(p *Params) { p.Domain = 1 },
		func(p *Params) { p.WindowSize = 0 },
		func(p *Params) { p.WarmupWindows = -1 },
		func(p *Params) { p.Kind = Kind(9) },
	}
	for i, mutate := range bad {
		p := testParams()
		mutate(&p)
		if _, err := New(p); err == nil {
			t.Errorf("invalid params %d accepted", i)
		}
	}
}

// TestQueryDuringWarmup pins that QueryTopK answers mid-warmup: the
// structure is partially filled, no decay has run, and the debiased
// estimates already reflect the absorbed prefix.
func TestQueryDuringWarmup(t *testing.T) {
	p := testParams()
	// Keep the per-window randomizer strong enough (ε/w = 2 over 32 values)
	// that the planted value dominates after half a window.
	p.Eps, p.Domain = 8, 32
	a, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if !a.InWarmup() {
		t.Fatal("fresh BasicHG aggregator not in warmup")
	}
	rng := rand.New(rand.NewPCG(1, 2))
	// Half a warmup window of a single hot value.
	for i := 0; i < p.WindowSize/2; i++ {
		if err := a.Absorb(uint32(a.rr.Sample(7, rng))); err != nil {
			t.Fatal(err)
		}
	}
	if !a.InWarmup() {
		t.Errorf("mid-window query point left warmup (reports=%d, cap=%d)", a.reports, a.warmupCap)
	}
	if w := a.CurrentWindow(); w != 0 {
		t.Errorf("CurrentWindow = %d mid-first-window, want 0", w)
	}
	est := a.QueryTopK(0)
	if len(est) == 0 {
		t.Fatal("QueryTopK during warmup returned nothing")
	}
	if est[0].Value != 7 {
		t.Errorf("top value during warmup = %d, want 7", est[0].Value)
	}
	if a.Evictions() != 0 || a.decays != 0 {
		t.Errorf("warmup ran decay: evictions=%d decays=%d", a.Evictions(), a.decays)
	}
	// Warmup ends exactly at WarmupWindows*WindowSize reports.
	for i := a.reports; i < a.warmupCap; i++ {
		if err := a.Absorb(uint32(a.rr.Sample(7, rng))); err != nil {
			t.Fatal(err)
		}
	}
	if a.InWarmup() {
		t.Error("still in warmup at the warmup cap")
	}
}

// TestEvictionAtExactlyFullBuckets drives a one-bucket structure to exactly
// full and pins the phase behaviors: warmup drops newcomers (overflow),
// statistics decays the weakest cell and replaces it at zero.
func TestEvictionAtExactlyFullBuckets(t *testing.T) {
	p := testParams()
	p.Domain = 16
	p.Buckets, p.LambdaH = 1, 2 // one bucket, two cells: full after 2 distinct values
	p.WindowSize = 4
	p.WarmupWindows = 1
	a, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the bucket exactly during warmup: two distinct values, then a
	// third on the full bucket must be dropped and counted.
	for _, v := range []uint32{1, 2, 3, 3} {
		if err := a.Absorb(v); err != nil {
			t.Fatal(err)
		}
	}
	if a.Overflow() != 2 {
		t.Fatalf("warmup overflow = %d, want 2 (both reports of value 3 on a full bucket)", a.Overflow())
	}
	if a.Evictions() != 0 {
		t.Fatalf("warmup evicted %d cells", a.Evictions())
	}
	// Statistics phase: hammer a newcomer at the exactly-full bucket. Each
	// arrival decays the weakest cell with probability b^-cnt (near 1 at
	// cnt=1), and the newcomer takes the slot when the count reaches zero.
	if a.InWarmup() {
		t.Fatal("still in warmup after WarmupWindows*WindowSize reports")
	}
	for i := 0; i < 50 && a.Evictions() == 0; i++ {
		if err := a.Absorb(5); err != nil {
			t.Fatal(err)
		}
	}
	if a.Evictions() == 0 {
		t.Fatal("50 statistics-phase arrivals at a full bucket evicted nothing")
	}
	if a.decays == 0 {
		t.Fatal("eviction with no decay attempt recorded")
	}
	tracked := false
	for _, c := range a.cells {
		if c.used && c.val == 5 {
			tracked = true
		}
	}
	if !tracked {
		t.Error("evicting newcomer 5 not tracked after eviction")
	}
	// The structure never exceeds its geometry.
	used := 0
	for _, c := range a.cells {
		if c.used {
			used++
		}
	}
	if used > p.Buckets*p.LambdaH {
		t.Errorf("%d cells used, structure holds %d", used, p.Buckets*p.LambdaH)
	}
}

// TestMergeMidWindowSnapshots splits one stream across two aggregators,
// snapshots both mid-window, folds them into a third, and checks the merge
// against the sequential reference. Naive merges exactly (bit-identical);
// BasicHG preserves the report clock and tracks the union's heavy values.
func TestMergeMidWindowSnapshots(t *testing.T) {
	for _, kind := range []Kind{Naive, BasicHG} {
		t.Run(kind.String(), func(t *testing.T) {
			p := testParams()
			p.Kind = kind
			p.WindowSize = 1000
			lw, rw, mw := newTestWire(t, p), newTestWire(t, p), newTestWire(t, p)
			left, right, seq, merged := lw.a, rw.a, newTestWire(t, p).a, mw.a
			rng := rand.New(rand.NewPCG(4, 4))
			// 1500 reports: both shards end mid-window (750 = 0.75 windows).
			const n = 1500
			for i := 0; i < n; i++ {
				v := uint32(a3(i) % uint64(p.Domain))
				out := uint32(left.rr.Sample(uint64(v), rng))
				target := left
				if i%2 == 1 {
					target = right
				}
				if err := target.Absorb(out); err != nil {
					t.Fatal(err)
				}
				if err := seq.Absorb(out); err != nil {
					t.Fatal(err)
				}
			}
			if left.CurrentWindow() != 0 || left.reports != n/2 {
				t.Fatalf("left shard at window %d with %d reports, want mid-window 0 with %d",
					left.CurrentWindow(), left.reports, n/2)
			}
			ls, err := lw.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			rs, err := rw.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := mw.MergeSnapshot(ls); err != nil {
				t.Fatal(err)
			}
			if err := mw.MergeSnapshot(rs); err != nil {
				t.Fatal(err)
			}
			if merged.reports != n {
				t.Fatalf("merged reports = %d, want %d", merged.reports, n)
			}
			if merged.CurrentWindow() != seq.CurrentWindow() {
				t.Errorf("merged window clock %d, sequential %d", merged.CurrentWindow(), seq.CurrentWindow())
			}
			got, want := merged.QueryTopK(0), seq.QueryTopK(0)
			if kind == Naive {
				// Counts add exactly: split-ingest-merge is bit-identical.
				if len(got) != len(want) {
					t.Fatalf("merged top-k size %d, sequential %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("merged[%d] = %+v, sequential %+v", i, got[i], want[i])
					}
				}
				return
			}
			// BasicHG: the merged structure must track the sequential top
			// value (decay histories differ, so only containment is pinned).
			if len(got) == 0 || len(want) == 0 {
				t.Fatal("empty top-k after merge")
			}
			found := false
			for _, e := range got {
				if e.Value == want[0].Value {
					found = true
				}
			}
			if !found {
				t.Errorf("sequential top value %d missing from merged top-k %+v", want[0].Value, got)
			}
		})
	}
}

// a3 is a cheap deterministic item sequence with a skewed head.
func a3(i int) uint64 {
	if i%3 != 0 {
		return uint64(i % 5)
	}
	return uint64(i % 97)
}

// TestWindowBudgetAccounting proves the per-window budget split: each
// report's randomizer runs at exactly ε/w, the realized worst-case privacy
// ratio of one report is e^{ε/w}, and basic composition over one report per
// window keeps the whole stream within the total budget ε.
func TestWindowBudgetAccounting(t *testing.T) {
	p := testParams()
	p.Eps, p.Windows, p.Domain = 2.0, 5, 32
	a, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	windowEps := p.WindowEps()
	if want := p.Eps / float64(p.Windows); windowEps != want {
		t.Fatalf("WindowEps = %v, want %v", windowEps, want)
	}
	if got := a.Randomizer().Epsilon(); got != windowEps {
		t.Fatalf("randomizer runs at ε = %v, want per-window %v", got, windowEps)
	}
	// The mechanism actually meets its stated budget: the exhaustive
	// worst-case output likelihood ratio over all input pairs is e^{ε/w}.
	ratio := ldp.MaxPrivacyRatio(a.Randomizer())
	if bound := math.Exp(windowEps); ratio > bound*(1+1e-9) {
		t.Fatalf("per-report privacy ratio %v exceeds e^(ε/w) = %v", ratio, bound)
	}
	// Basic composition: a device reporting once per window over all w
	// windows spends w·(ε/w) = ε ≤ ε total. Accumulate in log space exactly
	// as the composition theorem does.
	total := 0.0
	for w := 0; w < p.Windows; w++ {
		total += math.Log(ldp.MaxPrivacyRatio(a.Randomizer()))
	}
	if total > p.Eps*(1+1e-9) {
		t.Fatalf("composed stream budget %v exceeds total ε = %v", total, p.Eps)
	}
	// And the split is tight: fewer reports spend proportionally less.
	if one := math.Log(ratio); one > p.Eps/float64(p.Windows)*(1+1e-9) {
		t.Fatalf("single window spends %v, budget per window is %v", one, p.Eps/float64(p.Windows))
	}
}

// TestNaiveDebiasAccuracy pins the estimator: on a stationary stream the
// naive debiased counts track the true histogram within the calibrated
// envelope.
func TestNaiveDebiasAccuracy(t *testing.T) {
	p := testParams()
	p.Kind = Naive
	p.Domain, p.Eps, p.N = 64, 8, 30000
	a, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	truth := zipfStream(t, a, p.N, 1.5, 7)
	bound := a.ErrorBound(0.01)
	est := a.QueryTopK(p.Domain)
	byValue := make(map[uint32]float64, len(est))
	for _, e := range est {
		byValue[e.Value] = e.Count
	}
	for v, want := range truth {
		if got := byValue[uint32(v)]; math.Abs(got-float64(want)) > bound {
			t.Errorf("debiased est[%d] = %.0f, true %d (envelope %.0f)", v, got, want, bound)
		}
	}
}

// TestStreamingVsBatchRecall is the acceptance gate: on a stationary zipf
// stream, the bounded BasicHG structure's final top-k contains every true
// heavy hitter that clears the calibrated recovery floor — the same recall
// envelope the batch accuracy suite grants the full-histogram baseline.
func TestStreamingVsBatchRecall(t *testing.T) {
	p := testParams()
	// ε/w = 4 over 128 values: pKeep ≈ 0.30, estimation envelope ≈ 920 of
	// 40000 reports; K = 32 gives a 64-cell structure whose capture floor
	// (~3500) the zipf(1.4) head clears.
	p.Domain, p.Eps, p.K, p.N = 128, 16, 32, 40000
	p.WindowSize = p.N / p.Windows
	// Arm decay from the first report: a warmup that spans a whole window
	// hands cells to whichever values arrive first and drops later
	// newcomers, so a heavy value that misses the first few hundred reports
	// could be locked out. Warmup suits short structure-fill prefixes;
	// continuous accuracy runs contest cells by weight throughout.
	p.WarmupWindows = 0
	naive := func() *Aggregator {
		q := p
		q.Kind = Naive
		a, err := New(q)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}()
	hg, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// Identical stationary stream into both structures.
	rng := rand.New(rand.NewPCG(21, 22))
	z := rand.NewZipf(rng, 1.4, 1, uint64(p.Domain-1))
	truth := make([]int, p.Domain)
	for i := 0; i < p.N; i++ {
		x := z.Uint64()
		truth[x]++
		out := uint32(hg.rr.Sample(x, rng))
		if err := hg.Absorb(out); err != nil {
			t.Fatal(err)
		}
		if err := naive.Absorb(out); err != nil {
			t.Fatal(err)
		}
	}
	if hg.CurrentWindow() != p.Windows {
		t.Fatalf("stream ended at window %d, want all %d windows", hg.CurrentWindow(), p.Windows)
	}
	// True heavy hitters that clear the recovery floor — exactly the
	// accuracy suite's envelope (MinRecoverableFrequency): the estimation
	// envelope for the full histogram, joined with the capture floor for
	// the bounded structure.
	floor := naive.ErrorBound(0.05)
	if c := hg.CaptureFloor(); c > floor {
		floor = c
	}
	var heavy []uint32
	for v, c := range truth {
		if float64(c) > floor {
			heavy = append(heavy, uint32(v))
		}
	}
	if len(heavy) < 2 {
		t.Fatalf("only %d true values clear the %.0f floor; the recall check would be vacuous", len(heavy), floor)
	}
	if len(heavy) > p.K {
		heavy = heavy[:p.K]
	}
	inTop := func(est []ValueEstimate, v uint32) bool {
		for _, e := range est {
			if e.Value == v {
				return true
			}
		}
		return false
	}
	hgTop, naiveTop := hg.QueryTopK(0), naive.QueryTopK(0)
	for _, v := range heavy {
		if !inTop(naiveTop, v) {
			t.Errorf("baseline full histogram missed heavy value %d (true %d, floor %.0f)", v, truth[v], floor)
		}
		if !inTop(hgTop, v) {
			t.Errorf("bounded BasicHG missed heavy value %d (true %d, floor %.0f)", v, truth[v], floor)
		}
	}
	// And the bounded structure stayed bounded: cells scale with K, not
	// with the domain (the byte footprints only cross over for domains
	// far above this test's 128).
	if cells := hg.p.Buckets * hg.p.LambdaH; cells >= p.Domain {
		t.Errorf("BasicHG holds %d cells for a %d-value domain", cells, p.Domain)
	}
	if got, full := hg.SketchBytes(), 8*p.Domain; got > full {
		t.Errorf("BasicHG resident %d bytes, naive histogram is %d", got, full)
	}
}

// TestSnapshotRoundTrip pins Snapshot → Restore equivalence for both kinds.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, kind := range []Kind{Naive, BasicHG} {
		t.Run(kind.String(), func(t *testing.T) {
			p := testParams()
			p.Kind = kind
			aw, bw := newTestWire(t, p), newTestWire(t, p)
			a, b := aw.a, bw.a
			zipfStream(t, a, 3000, 1.2, 99)
			snap, err := aw.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := bw.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if b.reports != a.reports || b.evictions != a.evictions ||
				b.decays != a.decays || b.overflow != a.overflow {
				t.Fatalf("restored clocks (%d,%d,%d,%d) differ from original (%d,%d,%d,%d)",
					b.reports, b.evictions, b.decays, b.overflow,
					a.reports, a.evictions, a.decays, a.overflow)
			}
			ga, gb := a.QueryTopK(0), b.QueryTopK(0)
			if len(ga) != len(gb) {
				t.Fatalf("restored top-k size %d, original %d", len(gb), len(ga))
			}
			for i := range ga {
				if ga[i] != gb[i] {
					t.Fatalf("restored[%d] = %+v, original %+v", i, gb[i], ga[i])
				}
			}
			if a.Fingerprint() != b.Fingerprint() {
				t.Error("restored fingerprint differs")
			}
			// The restored aggregator keeps absorbing identically.
			rng := rand.New(rand.NewPCG(5, 5))
			for i := 0; i < 100; i++ {
				v := uint32(a.rr.Sample(3, rng))
				if err := a.Absorb(v); err != nil {
					t.Fatal(err)
				}
				if err := b.Absorb(v); err != nil {
					t.Fatal(err)
				}
			}
			ga, gb = a.QueryTopK(0), b.QueryTopK(0)
			for i := range ga {
				if ga[i] != gb[i] {
					t.Fatalf("post-restore absorb diverged at %d: %+v vs %+v", i, gb[i], ga[i])
				}
			}
		})
	}
}

// TestSnapshotValidation pins the reject paths: corruption and parameter
// mismatches must fail without touching the receiver.
func TestSnapshotValidation(t *testing.T) {
	p := testParams()
	aw := newTestWire(t, p)
	a := aw.a
	zipfStream(t, a, 2000, 1.2, 3)
	snap, err := aw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *Wire { return newTestWire(t, p) }

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		buf := append([]byte(nil), snap...)
		buf = mutate(buf)
		b := fresh()
		if err := b.Restore(buf); err == nil {
			t.Errorf("%s accepted", name)
		}
		if b.a.reports != 0 {
			t.Errorf("%s: failed restore mutated the receiver", name)
		}
	}
	corrupt("truncated snapshot", func(b []byte) []byte { return b[:len(b)-1] })
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("future version", func(b []byte) []byte { b[4] = 99; return b })
	corrupt("wrong kind", func(b []byte) []byte { b[bodyOff] = byte(Naive); return b })
	corrupt("wrong domain", func(b []byte) []byte { b[bodyOff+1]++; return b })
	corrupt("wrong seed", func(b []byte) []byte { b[bodyOff+44]++; return b })
	// The unused-cell guard needs a sparse snapshot — the shared one fills
	// every cell (2000 near-uniform observations over 16 cells).
	sparse := fresh()
	if err := sparse.a.Absorb(1); err != nil {
		t.Fatal(err)
	}
	sparseSnap, err := sparse.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	{
		buf := append([]byte(nil), sparseSnap...)
		body := buf[payloadOff:]
		planted := false
		for i := 0; i*cellLen < len(body); i++ {
			rec := body[i*cellLen:]
			if rec[0] == 0 {
				rec[12] = 1 // nonzero count bits on an unused cell
				planted = true
				break
			}
		}
		if !planted {
			t.Fatal("no unused cell in sparse snapshot")
		}
		if err := fresh().Restore(buf); err == nil {
			t.Error("unused cell with data accepted")
		}
	}
	corrupt("cell in wrong bucket", func(b []byte) []byte {
		// Move the first used cell's value out of its hash bucket.
		body := b[payloadOff:]
		for i := 0; i*cellLen < len(body); i++ {
			rec := body[i*cellLen:]
			if rec[0] != 1 {
				continue
			}
			v := uint32(rec[1])<<24 | uint32(rec[2])<<16 | uint32(rec[3])<<8 | uint32(rec[4])
			for nv := uint32(0); int(nv) < a.p.Domain; nv++ {
				if a.bucketOf.Range(uint64(nv), a.p.Buckets) != i/a.p.LambdaH {
					rec[1], rec[2], rec[3], rec[4] = byte(nv>>24), byte(nv>>16), byte(nv>>8), byte(nv)
					return b
				}
				_ = v
			}
		}
		t.Fatal("could not construct a wrong-bucket cell")
		return b
	})

	// Parameter mismatch: a differently-built receiver rejects the blob.
	q := p
	q.Eps = 2
	if err := newTestWire(t, q).Restore(snap); err == nil {
		t.Error("snapshot restored into an aggregator with a different ε")
	}

	// A round Identify has closed neither produces nor accepts snapshots.
	done := fresh()
	if _, err := done.Identify(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := done.Snapshot(); !errors.Is(err, proto.ErrRoundClosed) {
		t.Errorf("Snapshot after Identify: err = %v, want ErrRoundClosed", err)
	}
	if err := done.Restore(snap); !errors.Is(err, proto.ErrRoundClosed) {
		t.Errorf("Restore after Identify: err = %v, want ErrRoundClosed", err)
	}
	if err := done.MergeSnapshot(snap); !errors.Is(err, proto.ErrRoundClosed) {
		t.Errorf("MergeSnapshot after Identify: err = %v, want ErrRoundClosed", err)
	}
	wr := proto.NewWireReport(proto.IDStreamHG, wireVersion, []byte{0, 0, 0, 1})
	if err := done.Absorb(wr); !errors.Is(err, proto.ErrRoundClosed) {
		t.Errorf("Absorb after Identify: err = %v, want ErrRoundClosed", err)
	}
}

// TestNaiveSnapshotSumGuard pins the naive-kind consistency check: counts
// that do not sum to the report clock are rejected.
func TestNaiveSnapshotSumGuard(t *testing.T) {
	p := testParams()
	p.Kind = Naive
	w := newTestWire(t, p)
	zipfStream(t, w.a, 1000, 1.2, 13)
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Inflate one count by a material amount without touching the report
	// clock: the sum check must notice.
	buf := append([]byte(nil), snap...)
	c0 := math.Float64frombits(binary.BigEndian.Uint64(buf[payloadOff:]))
	binary.BigEndian.PutUint64(buf[payloadOff:], math.Float64bits(c0+1000))
	if err := newTestWire(t, p).Restore(buf); err == nil {
		t.Error("inconsistent counts/reports accepted")
	}
}
