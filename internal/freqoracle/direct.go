package freqoracle

import (
	"fmt"
	"math"
	"math/rand/v2"

	"ldphh/internal/ldp"
)

// DirectHistogram is the small-domain oracle of Theorem 3.8: every user
// holds a value in an explicit domain [0, Domain) and reports one Hadamard
// bit of its one-hot encoding over the padded domain [T], T = NextPow2(Domain).
// The server reconstructs the entire estimated histogram with a single fast
// Walsh-Hadamard transform, so point queries and full scans are O(1) and
// O(Domain) respectively after Finalize.
//
// Per-query error is O((1/ε)·sqrt(n·log(1/β))) — no dependence on the domain
// size — at server memory O(Domain), exactly the Theorem 3.8 trade-off that
// PrivateExpanderSketch exploits per coordinate.
//
// The server state is a one-row table (table.go) whose row count is the
// report count n; the oracle adds the randomizer and the histogram view.
type DirectHistogram struct {
	table
	eps    float64
	domain int
	rand   ldp.HadamardBit
	hist   []float64 // the last Finalize's view; nil before the first
}

// DirectReport is one user's message: a Hadamard column and a ±1 bit.
type DirectReport struct {
	Col uint32
	Bit int8
}

// NewDirectHistogram constructs the oracle over an explicit domain of the
// given size with privacy parameter eps.
func NewDirectHistogram(eps float64, domain int) (*DirectHistogram, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("freqoracle: Eps must be positive, got %v", eps)
	}
	if domain < 1 {
		return nil, fmt.Errorf("freqoracle: domain must be positive, got %d", domain)
	}
	s := directShape(eps, domain)
	return &DirectHistogram{table: newTable(s), eps: eps, domain: domain, rand: ldp.NewHadamardBit(eps, s.t)}, nil
}

// Domain returns the domain size.
func (d *DirectHistogram) Domain() int { return d.domain }

// Eps returns the privacy parameter of each report.
func (d *DirectHistogram) Eps() float64 { return d.eps }

// T returns the padded (power-of-two) report domain.
func (d *DirectHistogram) T() int { return d.t }

// Report produces one user's ε-LDP message for value x in [0, Domain).
func (d *DirectHistogram) Report(x uint64, rng *rand.Rand) (DirectReport, error) {
	if x >= uint64(d.domain) {
		return DirectReport{}, fmt.Errorf("freqoracle: value %d outside domain %d", x, d.domain)
	}
	y := d.rand.Sample(x, rng)
	col, bit := d.rand.DecodeReport(y)
	return DirectReport{Col: uint32(col), Bit: int8(bit)}, nil
}

// NewAccumulator returns an empty oracle with this one's parameters and
// counters of its own; Merge folds it back into any oracle with identical
// parameters. Aggregators absorb straight into their oracles and load
// snapshots with CheckSnapshot and AddSnapshot, so this in-memory
// copy-and-fold is for callers that keep separate oracles.
func (d *DirectHistogram) NewAccumulator() *DirectHistogram {
	return &DirectHistogram{table: newTable(d.blobShape), eps: d.eps, domain: d.domain, rand: d.rand}
}

// Absorb folds one report into the oracle, checking its column and bit.
// Not safe for concurrent use: every aggregator that owns one serializes
// it under its adapter lock.
func (d *DirectHistogram) Absorb(rep DirectReport) error {
	return d.absorb(0, rep.Col, rep.Bit)
}

// Finalize rebuilds the estimated histogram from the counters as they
// stand, into a fresh view that the read methods answer from until the
// next Finalize. It must not run concurrently with them.
func (d *DirectHistogram) Finalize() { d.hist = d.HistogramInto(make([]float64, d.t)) }

// HistogramInto writes the estimated histogram of the counters as they
// stand into slab, which must hold T cells, and returns its [0, Domain)
// view. The oracle keeps neither, so a caller that reconstructs many
// oracles in turn can reuse one slab; Finalize is HistogramInto on a
// fresh slab.
func (d *DirectHistogram) HistogramInto(slab []float64) []float64 {
	d.transform(slab[:d.t], d.rand.CEps(), 1)
	return slab[:d.domain]
}

// Estimate returns the estimated multiplicity of x as of the last
// Finalize. Must be called after Finalize.
func (d *DirectHistogram) Estimate(x uint64) float64 {
	if d.hist == nil {
		panic("freqoracle: Estimate before Finalize")
	}
	if x >= uint64(d.domain) {
		return 0
	}
	return d.hist[x]
}

// Histogram returns the full estimated histogram over [0, Domain) (a copy).
func (d *DirectHistogram) Histogram() []float64 {
	if d.hist == nil {
		panic("freqoracle: Histogram before Finalize")
	}
	return append([]float64(nil), d.hist[:d.domain]...)
}

// HistogramView returns the last Finalize's estimated histogram over
// [0, Domain) without copying. The caller must treat the slice as
// read-only; it never changes, because every Finalize builds a fresh view.
// Identify's parallel per-coordinate scan reads through this view so a
// large-domain scan costs no O(Domain) copy per coordinate.
func (d *DirectHistogram) HistogramView() []float64 {
	if d.hist == nil {
		panic("freqoracle: HistogramView before Finalize")
	}
	return d.hist[:d.domain]
}

// Merge folds another accumulator with identical parameters into this
// one's counters.
func (d *DirectHistogram) Merge(other *DirectHistogram) error {
	if d.eps != other.eps || d.domain != other.domain || d.t != other.t {
		return fmt.Errorf("freqoracle: Merge of differently-parameterized histograms")
	}
	d.merge(&other.table)
	return nil
}

// SketchBytes returns the resident server state in bytes.
func (d *DirectHistogram) SketchBytes() int {
	b := 8 * d.t
	if d.hist != nil {
		b *= 2
	}
	return b
}

// ErrorBound returns the Theorem 3.8-shaped high-probability bound on a
// single query's error at failure probability beta: the estimate is a sum of
// n independent bounded terms (each |CEps·H·bit| <= CEps), so Hoeffding
// gives CEps·sqrt(2·n·ln(2/β)).
func (d *DirectHistogram) ErrorBound(n int, beta float64) float64 {
	if beta <= 0 || beta >= 1 {
		panic("freqoracle: beta must be in (0,1)")
	}
	return d.rand.CEps() * math.Sqrt(2*float64(n)*math.Log(2/beta))
}
