// Package freqoracle implements the frequency oracles of the paper:
//
//   - Hashtogram (Theorem 3.7): the large-domain oracle of Bassily, Nissim,
//     Stemmer and Thakurta — a count-median sketch of R rows by T = O(√n)
//     buckets, filled through the Hadamard one-bit randomizer and
//     reconstructed with one fast Walsh-Hadamard transform per row. Error
//     O((1/ε)·sqrt(n·log(R'/β))) per query, server memory O~(√n), user time
//     and communication O~(1).
//   - DirectHistogram (Theorem 3.8): the small-domain variant that estimates
//     the whole histogram at once over an explicit domain, used per
//     coordinate inside PrivateExpanderSketch.
//
// Both follow the same client/server shape: the server is created first and
// publishes PublicParams (the protocol's public randomness); clients are
// cheap value types that turn an item into a single small report; the server
// absorbs reports in any order, finalizes, and then answers point queries.
// Both servers are one counter table (table.go) with one snapshot codec
// (snapshot.go): a Hashtogram is an R-row table, a DirectHistogram a
// one-row table.
//
// The package also provides RAPPOR-, OLH- and KRR-based oracles over
// explicit candidate sets as industrial baselines (see baselines.go).
package freqoracle

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"ldphh/internal/dist"
	"ldphh/internal/hadamard"
	"ldphh/internal/hashing"
	"ldphh/internal/ldp"
)

// HashtogramParams configures the large-domain oracle.
type HashtogramParams struct {
	Eps  float64 // privacy parameter of each user's single report
	N    int     // expected number of users (sizing hint)
	Rows int     // sketch depth R; 0 derives O(log n) from N
	T    int     // sketch width (power of two); 0 derives O(√n) from N
	Seed uint64  // public-randomness seed
}

func (p *HashtogramParams) setDefaults() error {
	if p.Eps <= 0 {
		return fmt.Errorf("freqoracle: Eps must be positive, got %v", p.Eps)
	}
	if p.N <= 0 {
		return fmt.Errorf("freqoracle: N must be positive, got %d", p.N)
	}
	if p.Rows == 0 {
		p.Rows = int(math.Ceil(2 * math.Log2(float64(p.N)+1)))
		if p.Rows < 8 {
			p.Rows = 8
		}
	}
	if p.Rows < 1 {
		return fmt.Errorf("freqoracle: Rows must be positive, got %d", p.Rows)
	}
	if p.T == 0 {
		p.T = hadamard.NextPow2(int(math.Ceil(math.Sqrt(float64(p.N)))))
		if p.T < 16 {
			p.T = 16
		}
	}
	if p.T < 2 || p.T&(p.T-1) != 0 {
		return fmt.Errorf("freqoracle: T must be a power of two >= 2, got %d", p.T)
	}
	return nil
}

// HashtogramReport is one user's message: the sketch row the user belongs
// to, the Hadamard column it sampled, and the randomized ±1 bit.
type HashtogramReport struct {
	Row int
	Col uint32
	Bit int8
}

// Hashtogram is the server side of the Theorem 3.7 oracle: an R-row
// table of T buckets (table.go) plus the public hashing that maps an item
// to a bucket and sign per row, and the estimate view of the last
// Finalize.
type Hashtogram struct {
	table
	p       HashtogramParams
	rowHash hashing.KWise // user index -> row (the public partition)
	hs      []hashing.KWise
	signs   []hashing.Sign
	fold    hashing.Fingerprinter
	rand    ldp.HadamardBit
	est     []float64 // [row*T + bucket] estimates of the last Finalize (nil before it)
	scale   []float64 // [row] n/rowCounts[row] at that Finalize, 0 exactly for empty rows
	scratch sync.Pool // *[]float64 per-query row-estimate buffers (Estimate runs concurrently)
}

// NewHashtogram constructs the server and draws the public randomness from
// params.Seed.
func NewHashtogram(params HashtogramParams) (*Hashtogram, error) {
	if err := params.setDefaults(); err != nil {
		return nil, err
	}
	rng := hashing.Seeded(params.Seed, 0x48617368)
	h := &Hashtogram{
		table:   newTable(hashtogramShape(params.Rows, params.T)),
		p:       params,
		rowHash: hashing.NewKWise(2, rng),
		hs:      make([]hashing.KWise, params.Rows),
		signs:   make([]hashing.Sign, params.Rows),
		fold:    hashing.NewFingerprinter(rng),
		rand:    ldp.NewHadamardBit(params.Eps, params.T),
	}
	for r := 0; r < params.Rows; r++ {
		h.hs[r] = hashing.NewKWise(2, rng)
		h.signs[r] = hashing.NewSign(rng)
	}
	return h, nil
}

// Params returns the defaulted parameters (the public randomness is fully
// determined by Params().Seed).
func (h *Hashtogram) Params() HashtogramParams { return h.p }

// Row returns the sketch row user userIdx reports into (public).
func (h *Hashtogram) Row(userIdx int) int {
	return h.rowHash.Range(uint64(userIdx), h.p.Rows)
}

// Report produces user userIdx's ε-LDP message for item x. It is the
// client-side computation: O(1) hash evaluations and one randomized bit.
func (h *Hashtogram) Report(x []byte, userIdx int, rng *rand.Rand) HashtogramReport {
	row := h.Row(userIdx)
	key := h.fold.Fold(x)
	bucket := uint64(h.hs[row].Range(key, h.p.T))
	sign := h.signs[row].Eval(key)
	// Encode sign by flipping the encoded basis vector: σ·e_b has Hadamard
	// coefficients σ·H[j,b]; realize σ on the true bit before randomizing.
	y := h.rand.Sample(bucket, rng)
	col, bit := h.rand.DecodeReport(y)
	bit *= sign
	return HashtogramReport{Row: row, Col: uint32(col), Bit: int8(bit)}
}

// NewAccumulator returns an empty sketch with this one's parameters and
// public randomness (the hash families are shared, read-only after
// construction) and counters of its own; Merge folds it back into any
// sketch with identical parameters. Aggregators absorb straight into their
// one sketch and load snapshots with CheckSnapshot and AddSnapshot, so
// this in-memory copy-and-fold is for callers that keep separate sketches.
func (h *Hashtogram) NewAccumulator() *Hashtogram {
	return &Hashtogram{
		table:   newTable(h.blobShape),
		p:       h.p,
		rowHash: h.rowHash,
		hs:      h.hs,
		signs:   h.signs,
		fold:    h.fold,
		rand:    h.rand,
	}
}

// Absorb folds one report into the sketch, checking its row, column and
// bit. Not safe for concurrent use: every aggregator that owns one
// serializes it under its adapter lock.
func (h *Hashtogram) Absorb(rep HashtogramReport) error {
	return h.absorb(rep.Row, rep.Col, rep.Bit)
}

// Finalize rebuilds per-row bucket histograms (one FWHT per row, all rows
// concurrently) from the counters as they stand, into a fresh view that
// Estimate answers from until the next Finalize. It must not run
// concurrently with Estimate.
func (h *Hashtogram) Finalize() { h.FinalizeWorkers(h.p.Rows) }

// FinalizeWorkers is Finalize with the row transforms bounded to at most
// workers concurrent goroutines; workers <= 1 runs fully serially with no
// goroutine at all. The reconstruction is per-row independent, so the
// view is bit-identical at every bound — the knob only caps concurrency
// (memory is the one rows×T view slab, allocated up front at any bound),
// which is how core.Protocol.Identify keeps its Params.Workers contract
// over the confirmation oracle.
func (h *Hashtogram) FinalizeWorkers(workers int) {
	est := h.transform(h.rand.CEps(), workers)
	// The per-row n/rowCounts rescale is fixed for the view's lifetime, so
	// it folds into one precomputed factor per row. n >= c, so a row's
	// factor is 0 exactly when the row is empty.
	scale := make([]float64, h.p.Rows)
	n := float64(h.total)
	for r, c := range h.rowCounts {
		if c > 0 {
			scale[r] = n / float64(c)
		}
	}
	h.est, h.scale = est, scale
}

// Merge folds another aggregator's accumulated state into this one. Both
// must be built from identical parameters (same Seed, so same public
// randomness). This is what lets intermediate aggregators pre-combine
// report batches before shipping them upstream.
func (h *Hashtogram) Merge(other *Hashtogram) error {
	if h.p != other.p {
		return fmt.Errorf("freqoracle: Merge of differently-parameterized sketches")
	}
	h.merge(&other.table)
	return nil
}

// rowEstimates appends the rescaled signed per-row estimates for x to dst
// and returns it sorted — the shared row loop behind Estimate and
// EstimateWithSpread. It reads only the last Finalize's view, never the
// live counters, and skips the rows that were empty then (scale 0); the
// sort makes the result directly consumable by dist.QuantileSorted, which
// is what keeps the query allocation-free. Must only be called after
// Finalize.
func (h *Hashtogram) rowEstimates(x []byte, dst []float64) []float64 {
	key := h.fold.Fold(x)
	for r := 0; r < h.p.Rows; r++ {
		if h.scale[r] == 0 {
			continue
		}
		bucket := h.hs[r].Range(key, h.p.T)
		sign := float64(h.signs[r].Eval(key))
		dst = append(dst, h.scale[r]*sign*h.est[r*h.p.T+bucket])
	}
	sort.Float64s(dst)
	return dst
}

// getScratch leases a row-estimate buffer from the per-sketch pool.
// Identify fans Estimate out over concurrent workers, so the scratch cannot
// be a single reused field; a pool keeps the steady state at zero
// allocations per query without serializing queriers.
func (h *Hashtogram) getScratch() *[]float64 {
	if buf, ok := h.scratch.Get().(*[]float64); ok {
		return buf
	}
	buf := make([]float64, 0, h.p.Rows)
	return &buf
}

// Estimate returns the estimated multiplicity of x among the reports the
// last Finalize saw: the median over rows of the rescaled signed bucket
// estimates (0 when no row held a report). Must be called after Finalize.
// Safe for concurrent use with other Estimate calls, not with Finalize
// (the view is read-only; per-query scratch comes from an internal pool).
func (h *Hashtogram) Estimate(x []byte) float64 {
	if h.est == nil {
		panic("freqoracle: Estimate before Finalize")
	}
	buf := h.getScratch()
	vals := h.rowEstimates(x, (*buf)[:0])
	var out float64
	if len(vals) > 0 {
		out = dist.QuantileSorted(vals, 0.5)
	}
	*buf = vals
	h.scratch.Put(buf)
	return out
}

// EstimateWithSpread returns the median estimate together with the
// interquartile range of the per-row estimates, a data-driven uncertainty
// indicator (wide spread flags heavy hash collisions or low row occupancy).
func (h *Hashtogram) EstimateWithSpread(x []byte) (est, iqr float64) {
	if h.est == nil {
		panic("freqoracle: EstimateWithSpread before Finalize")
	}
	buf := h.getScratch()
	vals := h.rowEstimates(x, (*buf)[:0])
	if len(vals) > 0 {
		est = dist.QuantileSorted(vals, 0.5)
		iqr = dist.QuantileSorted(vals, 0.75) - dist.QuantileSorted(vals, 0.25)
	}
	*buf = vals
	h.scratch.Put(buf)
	return est, iqr
}

// SketchBytes returns the resident size of the server state in bytes
// (the Table 1 "server memory" metric).
func (h *Hashtogram) SketchBytes() int {
	per := 8 * h.p.T * h.p.Rows // cells
	if h.est != nil {
		per *= 2 // est
	}
	return per + 8*h.p.Rows
}

// ErrorBound returns a calibrated envelope on the error of a single query at
// failure probability beta. Shape per Theorem 3.7: a per-row standard
// deviation of CEps·sqrt(n·R) from the privacy noise, with the median over R
// rows driving the failure probability down as exp(-Ω(R)), so the
// β-dependence enters as an additive ln(1/β) under the square root:
//
//	bound(β) = 2·CEps·sqrt(n·(R + ln(1/β)))
func (h *Hashtogram) ErrorBound(beta float64) float64 {
	if beta <= 0 || beta >= 1 {
		panic("freqoracle: beta must be in (0,1)")
	}
	n := float64(h.p.N)
	r := float64(h.p.Rows)
	return 2 * h.rand.CEps() * math.Sqrt(n*(r+math.Log(1/beta)))
}
