// Package stream implements the continuous-query streaming heavy-hitters
// aggregator: a HeavyGuardian-style bounded-memory top-k structure fed by
// k-ary randomized response reports, queryable at any time while ingestion
// continues.
//
// The batch protocols in this repository (internal/core, internal/baseline,
// internal/freqoracle) ingest a whole round and Identify once. Telemetry
// deployments instead stream reports indefinitely and ask "what is hot right
// now"; the related work (mpc4j-dp-stream's LdpHeavyHitterFactory) answers
// with a per-window privacy budget — a total budget ε split over w windows,
// each report randomized at ε/w so a device reporting once per window spends
// at most ε over the stream by basic composition — and a bounded-memory
// HeavyGuardian sketch on the server.
//
// Two kinds mirror the factory:
//
//   - Naive keeps the full debiased histogram (O(domain) memory) — the
//     accuracy baseline every bounded structure is judged against.
//   - BasicHG keeps w buckets of λ cells (HeavyGuardian): a warmup phase
//     fills empty cells, then a statistics phase decays the weakest cell of
//     a full bucket with probability b^-count and evicts it at zero.
//
// Both kinds absorb the identical wire reports (one k-ary RR ordinal per
// user per window), so a Naive and a BasicHG aggregator fed the same stream
// are directly comparable. All estimates are debiased with the standard
// k-RR inversion est = (obs − N·q)/(p − q).
//
// The Aggregator here is the single-threaded core; stream.Wire adapts it to
// the unified proto surface through proto.StateAdapter, whose lock
// serializes every call, and registers the streamhg codec.
package stream

import (
	"fmt"
	"math"
	"sort"

	"ldphh/internal/dist"
	"ldphh/internal/hashing"
	"ldphh/internal/ldp"
)

// Kind selects the server-side structure, mirroring the mpc4j factory's
// NAIVE_RR / BASIC_HG selection. The wire format is identical for both.
type Kind byte

const (
	// Naive keeps the full debiased histogram — O(domain) memory, the
	// accuracy baseline.
	Naive Kind = 1
	// BasicHG keeps the bounded HeavyGuardian bucket/cell structure.
	BasicHG Kind = 2
)

// String returns the kind's factory name.
func (k Kind) String() string {
	switch k {
	case Naive:
		return "naive"
	case BasicHG:
		return "basichg"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// decayBase is HeavyGuardian's exponential-decay base b: a full bucket's
// weakest cell is decremented with probability b^-count, so heavy cells are
// nearly immune to eviction pressure while light ones wash out.
const decayBase = 1.08

// Params configures a streaming aggregator. The zero value is invalid; every
// field that admits no sensible default must be set (the ldphh facade fills
// conventional defaults).
type Params struct {
	// Kind selects Naive or BasicHG.
	Kind Kind
	// Eps is the total per-user privacy budget over the whole stream; each
	// report is randomized at Eps/Windows.
	Eps float64
	// Windows is the per-user budget split w: a device reporting at most
	// once per window spends at most Eps over the stream. Must be >= 1 — a
	// zero-width window would leave every report with no budget at all.
	Windows int
	// K is the top-k size Identify returns (QueryTopK can ask for another).
	K int
	// Domain is the enumerable item domain size d; reports are k-ary RR
	// ordinals in [0, d).
	Domain int
	// WindowSize is the server-side window advance: every WindowSize
	// absorbed reports the window index increments. The first
	// WarmupWindows windows are BasicHG's structure-filling warmup.
	WindowSize int
	// WarmupWindows is the number of initial windows in which BasicHG only
	// fills empty cells (no decay, no eviction); >= 0, default 1 when left
	// zero by the facade is the caller's choice — 0 arms eviction
	// immediately.
	WarmupWindows int
	// Buckets and LambdaH set the HeavyGuardian geometry (w buckets of λ_h
	// cells). Zero derives LambdaH = 8 and Buckets = ceil(2K/λ_h), giving
	// the structure twice the capacity of the answer it serves.
	Buckets int
	LambdaH int
	// N is the expected stream length, used only to size the pre-run error
	// envelope (ErrorBound falls back to absorbed reports when 0).
	N int
	// Seed derives the bucket hash and the decay randomness; two
	// aggregators with equal seeds and geometry merge.
	Seed uint64
}

// withDefaults derives the HeavyGuardian geometry left zero.
func (p Params) withDefaults() Params {
	if p.Kind == BasicHG {
		if p.LambdaH == 0 {
			p.LambdaH = 8
		}
		if p.Buckets == 0 && p.LambdaH > 0 && p.K > 0 {
			p.Buckets = (2*p.K + p.LambdaH - 1) / p.LambdaH
			if p.Buckets < 1 {
				p.Buckets = 1
			}
		}
	}
	return p
}

func (p Params) validate() error {
	if p.Kind != Naive && p.Kind != BasicHG {
		return fmt.Errorf("stream: unknown kind %v", p.Kind)
	}
	if p.Eps <= 0 {
		return fmt.Errorf("stream: Eps must be positive, got %v", p.Eps)
	}
	if p.Windows < 1 {
		return fmt.Errorf("stream: zero-width window: Windows must be >= 1, got %d", p.Windows)
	}
	if p.K < 1 {
		return fmt.Errorf("stream: K must be >= 1, got %d", p.K)
	}
	if p.Domain < 2 || p.Domain > math.MaxUint32 {
		return fmt.Errorf("stream: Domain must be in [2, 2^32), got %d", p.Domain)
	}
	if p.WindowSize < 1 {
		return fmt.Errorf("stream: WindowSize must be >= 1, got %d", p.WindowSize)
	}
	if p.WarmupWindows < 0 {
		return fmt.Errorf("stream: WarmupWindows must be >= 0, got %d", p.WarmupWindows)
	}
	if p.Kind == BasicHG {
		if p.Buckets < 1 || p.LambdaH < 1 {
			return fmt.Errorf("stream: BasicHG needs Buckets >= 1 and LambdaH >= 1, got %d x %d", p.Buckets, p.LambdaH)
		}
	}
	return nil
}

// WindowEps returns the per-window (per-report) budget ε/w.
func (p Params) WindowEps() float64 { return p.Eps / float64(p.Windows) }

// cell is one HeavyGuardian slot: a tracked value and its (decayed)
// structure count.
type cell struct {
	val  uint32
	cnt  float64
	used bool
}

// ValueEstimate is one domain ordinal with its debiased count estimate.
type ValueEstimate struct {
	Value uint32
	Count float64
}

// Aggregator is the streaming heavy-hitters core. It is not safe for
// concurrent use — stream.Wire serializes it under proto.StateAdapter's lock for
// the generic TCP server. Determinism contract: for a fixed absorb order, every observable
// (structure state, QueryTopK output, snapshots) is bit-identical from run
// to run; all decay randomness is derived by counter-labeled hashing
// (dist.Mix), not a stateful rng.
type Aggregator struct {
	p         Params
	rr        ldp.KaryRR // per-window randomizer at ε/w
	warmupCap int        // reports in the warmup phase (WarmupWindows * WindowSize)

	bucketOf hashing.KWise // value -> bucket (BasicHG)

	counts []float64 // Naive: raw observation histogram
	cells  []cell    // BasicHG: Buckets x LambdaH, bucket b at [b*λ, (b+1)*λ)

	reports   int    // absorbed reports (window clock)
	evictions int64  // BasicHG cells evicted by decay
	decays    uint64 // decay attempts; the label of the decay randomness
	overflow  int64  // warmup reports dropped on a full bucket
}

// New constructs a streaming aggregator. HeavyGuardian geometry left zero is
// derived (λ_h = 8, Buckets = ceil(2K/λ_h)); everything else must be set.
func New(p Params) (*Aggregator, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	a := &Aggregator{
		p:         p,
		rr:        ldp.NewKaryRR(p.WindowEps(), uint64(p.Domain)),
		warmupCap: p.WarmupWindows * p.WindowSize,
	}
	switch p.Kind {
	case Naive:
		a.counts = make([]float64, p.Domain)
	case BasicHG:
		a.bucketOf = hashing.NewKWise(4, hashing.Seeded(p.Seed, 0x48476275636b6574)) // "HGbucket"
		a.cells = make([]cell, p.Buckets*p.LambdaH)
	}
	return a, nil
}

// Params returns the construction parameters (with derived geometry).
func (a *Aggregator) Params() Params { return a.p }

// Randomizer returns the per-window k-ary RR mechanism devices must use.
func (a *Aggregator) Randomizer() ldp.KaryRR { return a.rr }

// TotalReports returns the number of reports absorbed.
func (a *Aggregator) TotalReports() int { return a.reports }

// CurrentWindow returns the zero-based index of the window the next report
// lands in: absorbed reports / WindowSize.
func (a *Aggregator) CurrentWindow() int { return a.reports / a.p.WindowSize }

// InWarmup reports whether BasicHG is still in the structure-filling warmup
// phase (always false for Naive, which has no phases).
func (a *Aggregator) InWarmup() bool {
	return a.p.Kind == BasicHG && a.reports < a.warmupCap
}

// Evictions returns the number of cells evicted by decay so far.
func (a *Aggregator) Evictions() int64 { return a.evictions }

// Overflow returns the number of warmup-phase reports dropped because their
// bucket was already full (always 0 for Naive).
func (a *Aggregator) Overflow() int64 { return a.overflow }

// Absorb folds one randomized report (a domain ordinal) into the structure.
func (a *Aggregator) Absorb(v uint32) error {
	if int64(v) >= int64(a.p.Domain) {
		return fmt.Errorf("stream: report value %d outside domain %d", v, a.p.Domain)
	}
	if a.p.Kind == Naive {
		a.counts[v]++
		a.reports++
		return nil
	}
	warm := a.InWarmup() // phase of the report being absorbed
	a.reports++
	b := a.bucketOf.Range(uint64(v), a.p.Buckets)
	bucket := a.cells[b*a.p.LambdaH : (b+1)*a.p.LambdaH]
	// Tracked already?
	for i := range bucket {
		if bucket[i].used && bucket[i].val == v {
			bucket[i].cnt++
			return nil
		}
	}
	// Free cell?
	for i := range bucket {
		if !bucket[i].used {
			bucket[i] = cell{val: v, cnt: 1, used: true}
			return nil
		}
	}
	if warm {
		// Warmup fills only: a full bucket drops the newcomer (counted).
		a.overflow++
		return nil
	}
	// Statistics phase: exponentially decay the weakest cell; on zero the
	// newcomer takes the slot. The decay coin is derived by hashing the
	// seed with a monotone attempt counter — pure, so the structure is a
	// deterministic function of the absorb order.
	w := 0
	for i := 1; i < len(bucket); i++ {
		if bucket[i].cnt < bucket[w].cnt {
			w = i
		}
	}
	a.decays++
	u := float64(dist.Mix(a.p.Seed, 0x48476465636179, a.decays)>>11) * 0x1p-53 // "HGdecay"
	if u < math.Pow(decayBase, -bucket[w].cnt) {
		bucket[w].cnt--
		if bucket[w].cnt <= 0 {
			a.evictions++
			bucket[w] = cell{val: v, cnt: 1, used: true}
		}
	}
	return nil
}

// debias inverts the k-ary RR bias: est = (obs − N·q)/(p − q).
func (a *Aggregator) debias(obs float64) float64 {
	pk := a.rr.PKeep()
	q := (1 - pk) / float64(a.p.Domain-1)
	return (obs - float64(a.reports)*q) / (pk - q)
}

// QueryTopK returns the k largest debiased estimates (ties broken by
// ascending value) over the current structure, without retiring the stream.
// k <= 0 asks for the configured Params.K. Safe to call at any point of the
// stream, including mid-window and during warmup.
func (a *Aggregator) QueryTopK(k int) []ValueEstimate {
	if k <= 0 {
		k = a.p.K
	}
	var est []ValueEstimate
	switch a.p.Kind {
	case Naive:
		est = make([]ValueEstimate, a.p.Domain)
		for v, c := range a.counts {
			est[v] = ValueEstimate{Value: uint32(v), Count: a.debias(c)}
		}
	case BasicHG:
		est = make([]ValueEstimate, 0, len(a.cells))
		for _, c := range a.cells {
			if c.used {
				est = append(est, ValueEstimate{Value: c.val, Count: a.debias(c.cnt)})
			}
		}
	}
	sortValueEstimates(est)
	if len(est) > k {
		est = est[:k]
	}
	return est
}

// sortValueEstimates orders by decreasing count, ties by ascending value —
// the same strict total order every Identify in the repository returns.
func sortValueEstimates(est []ValueEstimate) {
	sort.Slice(est, func(i, j int) bool {
		if est[i].Count != est[j].Count {
			return est[i].Count > est[j].Count
		}
		return est[i].Value < est[j].Value
	})
}

// ErrorBound returns the per-value estimation envelope at confidence 1-beta:
// with probability 1-beta a single debiased estimate is within the bound of
// the true count (Hoeffding over the N per-report coins, scaled by the RR
// inversion denominator). Sized from Params.N before any report arrives.
func (a *Aggregator) ErrorBound(beta float64) float64 {
	n := a.reports
	if n < a.p.N {
		n = a.p.N
	}
	if n < 1 {
		n = 1
	}
	pk := a.rr.PKeep()
	q := (1 - pk) / float64(a.p.Domain-1)
	return math.Sqrt(float64(n)*math.Log(2/beta)/2) / (pk - q)
}

// CaptureFloor returns the bounded-structure recovery floor: the true count
// above which a value's observed arrival weight dominates the typical
// resident cell weight (reports spread over the Buckets×λ cells), so the
// value reliably wins a cell and decay pressure cannot wash it out. Below
// the floor a value competes with the k-RR background — every domain value
// observes ~N·q arrivals — and whether it holds a slot is a race decided by
// arrival order. Naive tracks the whole histogram and has no capture floor.
func (a *Aggregator) CaptureFloor() float64 {
	if a.p.Kind == Naive {
		return 0
	}
	n := a.reports
	if n < a.p.N {
		n = a.p.N
	}
	if n < 1 {
		n = 1
	}
	resident := 2 * float64(n) / float64(a.p.Buckets*a.p.LambdaH)
	pk := a.rr.PKeep()
	q := (1 - pk) / float64(a.p.Domain-1)
	f := (resident - float64(n)*q) / (pk - q)
	if f < 0 {
		f = 0
	}
	return f
}

// SketchBytes returns resident structure memory.
func (a *Aggregator) SketchBytes() int {
	if a.p.Kind == Naive {
		return 8 * len(a.counts)
	}
	return 16 * len(a.cells) // val + cnt + used, padded
}

// Merge folds another aggregator's structure into this one. Both must be
// built from identical parameters.
// Naive merges exactly (counts add, so split-ingest-merge is bit-identical
// to sequential ingest); BasicHG folds the other's tracked cells in:
// matching values add, free cells fill, and an incoming cell heavier than
// the bucket's weakest takes its slot (counted as an eviction).
func (a *Aggregator) Merge(other *Aggregator) error {
	if err := a.compatible(other); err != nil {
		return err
	}
	switch a.p.Kind {
	case Naive:
		for v, c := range other.counts {
			a.counts[v] += c
		}
	case BasicHG:
		for _, c := range other.cells {
			if c.used {
				a.mergeCell(c)
			}
		}
	}
	a.reports += other.reports
	a.evictions += other.evictions
	a.decays += other.decays
	a.overflow += other.overflow
	return nil
}

// mergeCell folds one tracked (value, count) pair into the structure with
// its full weight.
func (a *Aggregator) mergeCell(in cell) {
	b := a.bucketOf.Range(uint64(in.val), a.p.Buckets)
	bucket := a.cells[b*a.p.LambdaH : (b+1)*a.p.LambdaH]
	for i := range bucket {
		if bucket[i].used && bucket[i].val == in.val {
			bucket[i].cnt += in.cnt
			return
		}
	}
	for i := range bucket {
		if !bucket[i].used {
			bucket[i] = in
			return
		}
	}
	w := 0
	for i := 1; i < len(bucket); i++ {
		if bucket[i].cnt < bucket[w].cnt {
			w = i
		}
	}
	if in.cnt > bucket[w].cnt {
		a.evictions++
		bucket[w] = in
	}
}

// compatible checks that two aggregators share every state-shaping
// parameter (the N sizing hint excepted).
func (a *Aggregator) compatible(other *Aggregator) error {
	x, y := a.p, other.p
	x.N, y.N = 0, 0
	if x != y {
		return fmt.Errorf("stream: parameter mismatch: %+v vs %+v", x, y)
	}
	return nil
}

// NewAccumulator returns a fresh, empty aggregator with identical
// parameters — the shard a snapshot body decodes into.
func (a *Aggregator) NewAccumulator() *Aggregator {
	acc, err := New(a.p)
	if err != nil {
		// a.p validated at construction; a failure here is a programming error.
		panic(fmt.Sprintf("stream: NewAccumulator: %v", err))
	}
	return acc
}
