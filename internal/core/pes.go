package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"ldphh/internal/freqoracle"
	"ldphh/internal/hashing"
	"ldphh/internal/listrec"
	"ldphh/internal/par"
	"ldphh/internal/proto"
)

// Report is one user's single ε-LDP message: the user's coordinate group,
// the step-1 DirectHistogram half (privacy ε/2) and the step-5 Hashtogram
// confirmation half (privacy ε/2).
type Report struct {
	M    int
	Dir  freqoracle.DirectReport
	Conf freqoracle.HashtogramReport
}

// Estimate is one output row: an identified item and its estimated
// multiplicity. It is an alias of the repository-wide proto.Estimate, so
// estimates flow between protocols, the generic transport and the facade
// without conversion.
type Estimate = proto.Estimate

// Protocol is the PrivateExpanderSketch server. Construct with New, have
// each user call Report (the client-side computation), Absorb every report,
// then call Identify once.
//
// Absorb, Identify and the snapshot methods are safe for concurrent use:
// New builds the protocol's one PESWire, and every typed method calls
// through its proto.StateAdapter, whose lock guards the aggregation state
// and whose round lifecycle refuses them with proto.ErrRoundClosed once
// Identify has succeeded. High-throughput ingestion absorbs a whole wire
// batch under one acquisition of that lock.
//
// Identify itself fans out over a bounded pool of Params.Workers goroutines
// (per-coordinate scan, per-bucket decode, per-candidate confirmation) and
// is bit-identical at every worker count: all decode-side randomness is
// derived from Params.Seed and the super-bucket index, never from shared
// mutable generator state.
type Protocol struct {
	p        Params
	code     *listrec.Code
	g        hashing.KWise
	fold     hashing.Fingerprinter
	partHash hashing.KWise // user index -> coordinate group (public partition)
	zbits    int

	w        *PESWire // the one adapter: its lock guards everything below
	direct   []*freqoracle.DirectHistogram
	conf     *freqoracle.Hashtogram
	groupN   []int
	absorbed int
	blobs    [][]byte // the M+1 oracle blobs a snapshot's BodyLen wrote for its AppendBody
	slabHeap int      // bytes of the histogram slabs the last Identify reconstructed into
}

// New constructs the protocol and draws all public randomness from
// params.Seed.
func New(params Params) (*Protocol, error) {
	if err := params.setDefaults(); err != nil {
		return nil, err
	}
	rng := hashing.Seeded(params.Seed, 0x50455321)
	code, err := listrec.New(params.codeParams(), rng)
	if err != nil {
		return nil, err
	}
	zbits := code.ZBits()
	cells := params.CellsPerCoordinate(zbits)
	const maxCells = 1 << 26
	if cells > maxCells {
		return nil, fmt.Errorf("core: per-coordinate domain %d cells exceeds %d; shrink Y, F or D",
			cells, maxCells)
	}
	pr := &Protocol{
		p:        params,
		code:     code,
		g:        hashing.NewKWise(params.gWise(), rng),
		fold:     hashing.NewFingerprinter(rng),
		partHash: hashing.NewKWise(2, rng),
		direct:   make([]*freqoracle.DirectHistogram, params.M),
		zbits:    zbits,
		groupN:   make([]int, params.M),
		blobs:    make([][]byte, params.M+1),
	}
	for m := 0; m < params.M; m++ {
		d, err := freqoracle.NewDirectHistogram(params.Eps/2, params.B*params.Y*(1<<uint(zbits)))
		if err != nil {
			return nil, err
		}
		pr.direct[m] = d
	}
	pr.conf, err = freqoracle.NewHashtogram(freqoracle.HashtogramParams{
		Eps:  params.Eps / 2,
		N:    params.N,
		Seed: rng.Uint64(),
	})
	if err != nil {
		return nil, err
	}
	pr.w = newPESWire(pr)
	return pr, nil
}

// Params returns the defaulted parameters.
func (pr *Protocol) Params() Params { return pr.p }

// Code exposes the unique-list-recoverable code (public randomness).
func (pr *Protocol) Code() *listrec.Code { return pr.code }

// Group returns the coordinate group of user userIdx (public partition).
func (pr *Protocol) Group(userIdx int) int {
	return pr.partHash.Range(uint64(userIdx), pr.p.M)
}

// Bucket returns g(x) in [0, B).
func (pr *Protocol) Bucket(x []byte) int {
	return pr.g.Range(pr.fold.Fold(x), pr.p.B)
}

// cell packs (b, y, z) into the per-coordinate report domain:
// ((b·Y + y) << zbits) | z.
func (pr *Protocol) cell(b, y int, z uint64) uint64 {
	return (uint64(b)*uint64(pr.p.Y)+uint64(y))<<uint(pr.zbits) | z
}

// Report runs user userIdx's client computation on item x: O(M) hash and
// code evaluations and two randomized bits, all inside one message.
func (pr *Protocol) Report(x []byte, userIdx int, rng *rand.Rand) (Report, error) {
	if len(x) != pr.p.ItemBytes {
		return Report{}, fmt.Errorf("core: item length %d, want %d", len(x), pr.p.ItemBytes)
	}
	m := pr.Group(userIdx)
	enc, err := pr.code.Encode(x)
	if err != nil {
		return Report{}, err
	}
	sym := enc[m]
	v := pr.cell(pr.Bucket(x), sym.Y, sym.Z)
	dirRep, err := pr.direct[m].Report(v, rng)
	if err != nil {
		return Report{}, err
	}
	return Report{
		M:    m,
		Dir:  dirRep,
		Conf: pr.conf.Report(x, userIdx, rng),
	}, nil
}

// Absorb folds one user report into the server state through the
// adapter's gate, the lock batch ingestion takes too.
func (pr *Protocol) Absorb(rep Report) error {
	return pr.w.Gated(func() error { return pr.absorb(rep) })
}

// absorb is Absorb's body; the caller holds the adapter lock.
func (pr *Protocol) absorb(rep Report) error {
	if rep.M < 0 || rep.M >= pr.p.M {
		return fmt.Errorf("core: report group %d out of range", rep.M)
	}
	if err := pr.direct[rep.M].Absorb(rep.Dir); err != nil {
		return err
	}
	if err := pr.conf.Absorb(rep.Conf); err != nil {
		return err
	}
	pr.groupN[rep.M]++
	pr.absorbed++
	return nil
}

// listEntry is a candidate (y, z) with its estimate, used for top-cap
// admission.
type listEntry struct {
	sym listrec.Symbol
	est float64
}

// Identify runs the server-side reconstruction (steps 2-6 of Algorithm 1)
// and returns the estimates sorted by decreasing count. Its first success
// closes the round: further Absorb, Identify and snapshot calls fail with
// proto.ErrRoundClosed.
//
// Every stage fans out over at most Params.Workers goroutines, and the
// output is bit-identical at any worker count: each coordinate's scan and
// each bucket's decode is a pure function of the absorbed counters and
// Params.Seed writing only its own output slot, and the final order is a
// strict total order (count descending, item ascending) over deduplicated
// items.
func (pr *Protocol) Identify() ([]Estimate, error) {
	return pr.w.Identify(context.Background())
}

// identify is Identify's body; the caller holds the adapter lock.
func (pr *Protocol) identify() ([]Estimate, error) {
	workers := pr.p.Workers
	if workers < 1 {
		workers = 1
	}
	// Steps 2-3, one task per coordinate: reconstruct the coordinate's
	// histogram into a slab, then run the per (b, y) arg-max over z,
	// threshold and top-cap. Coordinates are independent — task m reads
	// only its own oracle and writes only the lists[b][m] slots — so they
	// parallelize over m with no synchronization beyond the pool barrier.
	// The scan copies out symbols only, so a task hands its slab back the
	// moment it ends: at most min(workers, M) tasks run at once, and as
	// many slabs serve all M coordinates.
	lists := make([][][]listrec.Symbol, pr.p.B) // [b][m] -> list
	for b := range lists {
		lists[b] = make([][]listrec.Symbol, pr.p.M)
	}
	slabs := make(chan []float64, min(workers, pr.p.M))
	for range cap(slabs) {
		slabs <- make([]float64, pr.direct[0].T())
	}
	pr.slabHeap = 8 * cap(slabs) * pr.direct[0].T()
	par.Range(pr.p.M, workers, func(m int) {
		slab := <-slabs
		pr.scanLists(m, pr.direct[m].HistogramInto(slab), lists)
		slabs <- slab
	})

	// Step 4: decode each super-bucket concurrently. Decode draws no
	// randomness, so the items bucket b returns do not depend on which
	// worker ran it or in what order; the dedup below then walks buckets in
	// index order, keeping the candidate list canonical.
	decoded := make([][][]byte, pr.p.B)
	decodeErrs := make([]error, pr.p.B)
	par.Range(pr.p.B, workers, func(b int) {
		items, err := pr.code.Decode(lists[b])
		if err != nil {
			decodeErrs[b] = fmt.Errorf("core: decoding bucket %d: %w", b, err)
			return
		}
		decoded[b] = items
	})
	for _, err := range decodeErrs {
		if err != nil {
			return nil, err
		}
	}
	seen := make(map[string]bool)
	var candidates [][]byte
	for b := 0; b < pr.p.B; b++ {
		for _, it := range decoded[b] {
			// The decoded item must actually map to this super-bucket;
			// anything else is a phantom assembled from cross-bucket noise.
			if pr.Bucket(it) != b {
				continue
			}
			if !seen[string(it)] {
				seen[string(it)] = true
				candidates = append(candidates, it)
			}
		}
	}

	// Steps 5-6: confirm frequencies with the second report halves. The
	// oracle finalize honors the same worker bound; after it the oracle is
	// read-only, so the estimates fan out per candidate over the same pool.
	// The candidate list is short, so the final sort is serial.
	pr.conf.FinalizeWorkers(workers)
	out := make([]Estimate, len(candidates))
	par.Range(len(candidates), workers, func(i int) {
		out[i] = Estimate{Item: candidates[i], Count: pr.conf.Estimate(candidates[i])}
	})
	proto.SortEstimates(out)
	return out, nil
}

// HeavyHitters returns the Definition 3.1 view of the identification output:
// only items whose confirmed estimate reaches delta, truncated to the
// definition's O(n/delta) list-size bound (keeping the largest estimates).
// Call after building est with Identify.
func HeavyHitters(est []Estimate, n int, delta float64) ([]Estimate, error) {
	if delta <= 0 {
		return nil, fmt.Errorf("core: delta must be positive, got %v", delta)
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: n must be positive, got %d", n)
	}
	// est arrives sorted by decreasing count (Identify's contract).
	for i := 1; i < len(est); i++ {
		if est[i].Count > est[i-1].Count {
			return nil, fmt.Errorf("core: estimates not sorted by decreasing count")
		}
	}
	var out []Estimate
	for _, e := range est {
		if e.Count >= delta {
			out = append(out, e)
		}
	}
	// |L| <= 2n/delta: at most n/ (delta/2) items can have true frequency
	// delta/2, and estimates concentrate; cap defensively at 2n/delta.
	maxLen := int(2 * float64(n) / delta)
	if maxLen < 1 {
		maxLen = 1
	}
	if len(out) > maxLen {
		out = out[:maxLen]
	}
	return out, nil
}

// scanLists runs the steps 2-3 admission scan for coordinate m over hist,
// the coordinate's reconstructed histogram: per (b, y) arg-max over z,
// threshold, top-cap. It writes only the lists[b][m] slots, which is what
// lets Identify parallelize the scan over coordinates with no
// synchronization, and keeps nothing of hist, whose slab Identify reuses.
//
// The inner arg-max is the profiled Identify scan kernel, so it is written
// for bounds-check elimination: each (b, y) re-slices the histogram to its
// zSize-cell row and seeds the running maximum from cell 0 rather than a
// -Inf sentinel (histogram cells are always finite, so the first
// iteration's compare-against-sentinel was pure overhead). len(row) pins
// the loop bound to the slice the compiler just checked, eliding the
// per-iteration bounds check.
func (pr *Protocol) scanLists(m int, hist []float64, lists [][][]listrec.Symbol) {
	tau := pr.threshold(m)
	listCap := pr.p.listCap()
	zSize := int(uint64(1) << uint(pr.zbits))
	for b := 0; b < pr.p.B; b++ {
		var entries []listEntry
		for y := 0; y < pr.p.Y; y++ {
			base := int(pr.cell(b, y, 0))
			row := hist[base : base+zSize]
			bestZ, bestV := 0, row[0]
			for z := 1; z < len(row); z++ {
				if v := row[z]; v > bestV {
					bestV, bestZ = v, z
				}
			}
			if bestV >= tau {
				entries = append(entries, listEntry{
					sym: listrec.Symbol{Y: y, Z: uint64(bestZ)},
					est: bestV,
				})
			}
		}
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].est != entries[j].est {
				return entries[i].est > entries[j].est
			}
			return entries[i].sym.Y < entries[j].sym.Y
		})
		if len(entries) > listCap {
			entries = entries[:listCap]
		}
		syms := make([]listrec.Symbol, len(entries))
		for i, e := range entries {
			syms[i] = e.sym
		}
		lists[b][m] = syms
	}
}

// threshold is the step-3b admission bound for coordinate m:
// TauFactor standard deviations of the group's estimator noise.
func (pr *Protocol) threshold(m int) float64 {
	nm := float64(pr.groupN[m])
	if nm < 1 {
		nm = 1
	}
	eps1 := pr.p.Eps / 2
	e := math.Exp(eps1)
	ceps := (e + 1) / (e - 1)
	return pr.p.TauFactor * ceps * math.Sqrt(nm)
}

// EstimateFrequency exposes the confirmation oracle for ad-hoc queries
// after a successful Identify, whose closed round refuses every write (the
// protocol is a frequency oracle too, Definition 3.2).
func (pr *Protocol) EstimateFrequency(x []byte) float64 {
	return pr.conf.Estimate(x)
}

// TotalReports returns the number of absorbed reports.
func (pr *Protocol) TotalReports() int { return pr.w.TotalReports() }

// SketchBytes returns the resident server memory across both phases: the
// counters, the confirmation oracle's view once built, and, once Identify
// has run, the min(Workers, M) histogram slabs it reconstructed the
// coordinates into.
func (pr *Protocol) SketchBytes() int { return pr.w.SketchBytes() }

// sketchBytes is SketchBytes' body; the caller holds the adapter lock.
func (pr *Protocol) sketchBytes() int {
	total := pr.conf.SketchBytes() + pr.slabHeap
	for _, d := range pr.direct {
		total += d.SketchBytes()
	}
	return total
}

// ReportPayloadBytes is the payload of one user message: group (2) +
// direct column (4) + direct bit (1) + confirmation row (2) + confirmation
// column (4) + confirmation bit (1). The wire frame puts the 2-byte
// [protocol ID][codec version] header in front of it, so the registered
// codec's FrameBytes is 2 + this constant — one shared source of truth the
// wire encoder, the server's frame reader and the Table 1 communication
// metric all derive from, pinned together by
// TestFrameSizePinnedToBytesPerReport. (Historically the two were written
// down independently and drifted.)
const ReportPayloadBytes = 2 + 4 + 1 + 2 + 4 + 1

// BytesPerReport returns the payload size of one user message (the Table 1
// "communication per user" metric). Like every baseline's BytesPerReport
// it excludes transport framing — the wire frame adds the 2-byte header,
// see the registered codec's FrameBytes — so the cross-protocol comparison
// stays apples-to-apples.
func (pr *Protocol) BytesPerReport() int { return ReportPayloadBytes }

// ConfOracleParams exposes the confirmation oracle's defaulted parameters;
// the end-to-end accuracy suite derives its binomial-tail error bounds from
// the row count and width chosen here.
func (pr *Protocol) ConfOracleParams() freqoracle.HashtogramParams {
	return pr.conf.Params()
}
