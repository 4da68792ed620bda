package baseline

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"ldphh/internal/freqoracle"
	"ldphh/internal/hashing"
	"ldphh/internal/ldp"
	"ldphh/internal/proto"
)

// BassilySmithParams configures the [4]-style succinct-histogram protocol.
// The domain must be explicitly enumerable: items are the Domain ordinals
// [0, DomainSize) of the given byte width.
type BassilySmithParams struct {
	Eps        float64
	N          int
	ItemBytes  int
	DomainSize int // |X|, scanned exhaustively by the server
	Proj       int // projection dimension m̂; 0 derives ~n
	Seed       uint64
}

func (p *BassilySmithParams) setDefaults() error {
	if p.Eps <= 0 {
		return fmt.Errorf("baseline: Eps must be positive")
	}
	if p.N <= 0 {
		return fmt.Errorf("baseline: N must be positive")
	}
	if p.ItemBytes < 1 || p.ItemBytes > 8 {
		return fmt.Errorf("baseline: BassilySmith supports ItemBytes in [1,8]")
	}
	if p.DomainSize <= 1 {
		return fmt.Errorf("baseline: DomainSize must be > 1")
	}
	if p.ItemBytes < 8 && uint64(p.DomainSize) > uint64(1)<<(8*p.ItemBytes) {
		return fmt.Errorf("baseline: DomainSize exceeds the item width")
	}
	if p.Proj == 0 {
		p.Proj = p.N
	}
	if p.Proj < 1 {
		return fmt.Errorf("baseline: Proj must be positive")
	}
	return nil
}

// BassilySmithReport is one user's message: a projection row index and one
// randomized bit.
type BassilySmithReport struct {
	Row int
	Bit int8
}

// BassilySmith is a scaled-down succinct-histogram server in the style of
// Bassily and Smith (STOC 2015). The public randomness is a ±1 projection
// matrix Φ ∈ {±1}^{Proj×|X|} realized as a pairwise-independent sign hash.
// Each user reports one randomized entry of Φ's column for its item; the
// server reconstructs ẑ and scans *every* domain element x, estimating
// f(x) = <Φ_x, ẑ>·|scaling|. The exhaustive scan is the O(|X|·Proj) server
// cost that Table 1 charges this protocol for (the original paper trades it
// to O(n^2.5) with their identification tree; either way it is super-linear
// and dominates PrivateExpanderSketch's O~(n); see DESIGN.md S3).
type BassilySmith struct {
	reportTally
	p BassilySmithParams
	// sign is 4-wise independent: the estimator correlates *products* of two
	// projection entries across rows, and pairwise independence does not
	// control the variance of products (it produced systematic cross-item
	// bias); 4-wise does.
	sign      hashing.KWise
	rowOf     hashing.KWise
	rr        ldp.BinaryRR
	z         []float64
	rowCounts []int
}

// NewBassilySmith constructs the server.
func NewBassilySmith(params BassilySmithParams) (*BassilySmith, error) {
	if err := params.setDefaults(); err != nil {
		return nil, err
	}
	rng := hashing.Seeded(params.Seed, 0x42535348)
	return &BassilySmith{
		p:         params,
		sign:      hashing.NewKWise(4, rng),
		rowOf:     hashing.NewKWise(2, rng),
		rr:        ldp.NewBinaryRR(params.Eps),
		z:         make([]float64, params.Proj),
		rowCounts: make([]int, params.Proj),
	}, nil
}

// Params returns the defaulted parameters.
func (bs *BassilySmith) Params() BassilySmithParams { return bs.p }

// phi returns the projection entry Φ[row, x] in {±1}.
func (bs *BassilySmith) phi(row int, x uint64) int {
	if bs.sign.Eval(uint64(row)<<32^x)&1 == 0 {
		return 1
	}
	return -1
}

// Report runs user userIdx's client computation for domain ordinal x.
func (bs *BassilySmith) Report(x uint64, userIdx int, rng *rand.Rand) (BassilySmithReport, error) {
	if x >= uint64(bs.p.DomainSize) {
		return BassilySmithReport{}, fmt.Errorf("baseline: ordinal %d outside domain %d", x, bs.p.DomainSize)
	}
	row := bs.rowOf.Range(uint64(userIdx), bs.p.Proj)
	trueBit := uint64(0)
	if bs.phi(row, x) > 0 {
		trueBit = 1
	}
	y := bs.rr.Sample(trueBit, rng)
	bit := int8(-1)
	if y == 1 {
		bit = 1
	}
	return BassilySmithReport{Row: row, Bit: bit}, nil
}

// Absorb folds one report into the accumulator.
func (bs *BassilySmith) Absorb(rep BassilySmithReport) error {
	if rep.Row < 0 || rep.Row >= bs.p.Proj {
		return fmt.Errorf("baseline: report row %d out of range", rep.Row)
	}
	if rep.Bit != 1 && rep.Bit != -1 {
		return fmt.Errorf("baseline: report bit %d invalid", rep.Bit)
	}
	// Unbias the randomized sign: E[report] = sign/CEps.
	e := math.Exp(bs.p.Eps)
	ceps := (e + 1) / (e - 1)
	bs.z[rep.Row] += ceps * float64(rep.Bit)
	bs.rowCounts[rep.Row]++
	bs.absorbed++
	return nil
}

// EstimateOrdinal returns the frequency estimate of a single domain ordinal
// (an O(1) correlation against the user's row would be biased; the estimator
// correlates over all rows weighted by row occupancy — O(Proj) per query,
// the protocol's documented cost profile).
func (bs *BassilySmith) EstimateOrdinal(x uint64) float64 {
	est := 0.0
	for row := 0; row < bs.p.Proj; row++ {
		if bs.rowCounts[row] == 0 {
			continue
		}
		est += float64(bs.phi(row, x)) * bs.z[row]
	}
	return est
}

// Identify scans the whole domain and returns every ordinal whose estimate
// is at least minCount, sorted by decreasing estimate. Server time
// O(|X|·Proj): the Table 1 super-linear cost.
func (bs *BassilySmith) Identify(minCount float64) []Estimate {
	est, _ := bs.IdentifyContext(context.Background(), minCount)
	return est
}

// IdentifyContext is Identify with cancellation: the exhaustive scan is the
// one super-linear server cost in the repository, so it checks the context
// periodically (every 1024 ordinals) and aborts mid-scan when the deadline
// passes or the caller cancels. The scan only reads the accumulator.
func (bs *BassilySmith) IdentifyContext(ctx context.Context, minCount float64) ([]Estimate, error) {
	var out []Estimate
	for x := uint64(0); x < uint64(bs.p.DomainSize); x++ {
		if x%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if est := bs.EstimateOrdinal(x); est >= minCount {
			out = append(out, Estimate{Item: freqoracle.OrdinalBytes(x, bs.p.ItemBytes), Count: est})
		}
	}
	proto.SortEstimates(out)
	return out, nil
}

// ErrorBound returns the protocol's error envelope at failure probability
// beta: CEps·sqrt(2·n·ln(2·|X|/beta)) — the sqrt(n·log|X|/ε) shape of [4].
func (bs *BassilySmith) ErrorBound(beta float64) float64 {
	if beta <= 0 || beta >= 1 {
		panic("baseline: beta must be in (0,1)")
	}
	e := math.Exp(bs.p.Eps)
	ceps := (e + 1) / (e - 1)
	return ceps * math.Sqrt(2*float64(bs.p.N)*math.Log(2*float64(bs.p.DomainSize)/beta))
}

// SketchBytes returns resident server memory: the z vector is O(Proj) = O(n).
func (bs *BassilySmith) SketchBytes() int { return 8*len(bs.z) + 8*len(bs.rowCounts) }

// BytesPerReport returns the payload size of one user message.
func (bs *BassilySmith) BytesPerReport() int { return bassilySmithPayloadBytes }

// ordinalBytes is the canonical ordinal encoding, shared repository-wide.
func ordinalBytes(x uint64, width int) []byte { return freqoracle.OrdinalBytes(x, width) }

// NonPrivate is the exact (no privacy) counter used as ground truth in
// benches and examples.
type NonPrivate struct {
	counts map[string]int
	n      int
}

// NewNonPrivate constructs the counter.
func NewNonPrivate() *NonPrivate {
	return &NonPrivate{counts: make(map[string]int)}
}

// AddUser counts one item.
func (np *NonPrivate) AddUser(x []byte) {
	np.counts[string(x)]++
	np.n++
}

// Identify returns items with count >= minCount, sorted by decreasing count.
func (np *NonPrivate) Identify(minCount int) []Estimate {
	var out []Estimate
	for item, c := range np.counts {
		if c >= minCount {
			out = append(out, Estimate{Item: []byte(item), Count: float64(c)})
		}
	}
	proto.SortEstimates(out)
	return out
}

// Estimate returns the exact count of x.
func (np *NonPrivate) Estimate(x []byte) float64 { return float64(np.counts[string(x)]) }
