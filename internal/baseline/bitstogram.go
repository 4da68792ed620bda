// Package baseline implements the two prior-work heavy-hitters protocols of
// Table 1, so every benchmark row can be regenerated comparatively:
//
//   - Bitstogram — the protocol of Bassily, Nissim, Stemmer and Thakurta
//     (NIPS 2017, reference [3]; Section 3.1.1 of the paper): a single
//     public hash h per repetition, bit-by-bit reconstruction of candidate
//     pre-images, and O(log(1/β)) independent repetitions to drive the
//     failure probability down. The repetitions split the user population,
//     which is precisely what costs the extra sqrt(log(1/β)) error factor
//     that PrivateExpanderSketch removes.
//
//   - BassilySmith — a scaled-down but faithful succinct-histogram protocol
//     in the style of Bassily and Smith (STOC 2015, reference [4]): a
//     JL-style random ±1 projection reported one randomized bit per user and
//     an exhaustive candidate scan over the whole domain, exhibiting the
//     server-time blow-up the paper's Table 1 reports (DESIGN.md
//     substitution S3).
//
// And NonPrivate, the exact counter used as ground truth.
package baseline

import (
	"fmt"
	"math"
	"math/rand/v2"

	"ldphh/internal/freqoracle"
	"ldphh/internal/hadamard"
	"ldphh/internal/hashing"
	"ldphh/internal/proto"
)

// Estimate is an alias of the repository-wide proto.Estimate (identical to
// core.Estimate), so baseline output flows through the unified aggregation
// surface without conversion.
type Estimate = proto.Estimate

// BitstogramParams configures the [3]-style protocol. The repetition count
// K = ceil(log2(1/Beta)) and the per-repetition hash range T ≈ sqrt(N)
// derive from these fields.
type BitstogramParams struct {
	Eps       float64
	N         int
	ItemBytes int
	Beta      float64 // target failure probability the repetition count derives from (default 0.05)
	Seed      uint64
}

func (p *BitstogramParams) setDefaults() error {
	if p.Eps <= 0 {
		return fmt.Errorf("baseline: Eps must be positive")
	}
	if p.N <= 0 {
		return fmt.Errorf("baseline: N must be positive")
	}
	if p.ItemBytes < 1 || p.ItemBytes > 64 {
		return fmt.Errorf("baseline: ItemBytes must be in [1,64]")
	}
	if p.Beta == 0 {
		p.Beta = 0.05
	}
	if p.Beta <= 0 || p.Beta >= 1 {
		return fmt.Errorf("baseline: Beta must be in (0,1)")
	}
	return nil
}

// BitstogramReport is one user's message: the (repetition, bit-position)
// group and the two report halves.
type BitstogramReport struct {
	Rep  int
	Bit  int
	Dir  freqoracle.DirectReport
	Conf freqoracle.HashtogramReport
}

// Bitstogram is the server. Each user is assigned to one (repetition k, bit
// position m) group and reports, at privacy ε/2, the composite value
// (h_k(x), x_m) into the group's DirectHistogram; the second half (ε/2)
// feeds a confirmation Hashtogram. For each repetition and hash cell y the
// server reads each bit as argmax{est(y,0), est(y,1)}, assembles the
// candidate pre-image, and confirms candidates on the oracle.
type Bitstogram struct {
	reportTally
	p        BitstogramParams
	reps     int // K independent repetitions: ceil(log2(1/Beta)), at least 1
	t        int // hash range per repetition: NextPow2(sqrt(N)), at least 16
	bits     int
	hs       []hashing.KWise
	fold     hashing.Fingerprinter
	partHash hashing.KWise
	direct   [][]*freqoracle.DirectHistogram // [rep][bit]
	conf     *freqoracle.Hashtogram
	groupN   [][]int
}

// NewBitstogram constructs the server, drawing public randomness from Seed.
func NewBitstogram(params BitstogramParams) (*Bitstogram, error) {
	if err := params.setDefaults(); err != nil {
		return nil, err
	}
	rng := hashing.Seeded(params.Seed, 0x42495453)
	bits := 8 * params.ItemBytes
	reps := max(1, int(math.Ceil(math.Log2(1/params.Beta))))
	b := &Bitstogram{
		p:        params,
		reps:     reps,
		t:        max(16, hadamard.NextPow2(int(math.Sqrt(float64(params.N))))),
		bits:     bits,
		hs:       make([]hashing.KWise, reps),
		fold:     hashing.NewFingerprinter(rng),
		partHash: hashing.NewKWise(2, rng),
		direct:   make([][]*freqoracle.DirectHistogram, reps),
		groupN:   make([][]int, reps),
	}
	for k := 0; k < reps; k++ {
		b.hs[k] = hashing.NewKWise(2, rng)
		b.direct[k] = make([]*freqoracle.DirectHistogram, bits)
		b.groupN[k] = make([]int, bits)
		for m := 0; m < bits; m++ {
			d, err := freqoracle.NewDirectHistogram(params.Eps/2, 2*b.t)
			if err != nil {
				return nil, err
			}
			b.direct[k][m] = d
		}
	}
	var err error
	b.conf, err = freqoracle.NewHashtogram(freqoracle.HashtogramParams{
		Eps:  params.Eps / 2,
		N:    params.N,
		Seed: rng.Uint64(),
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Params returns the defaulted parameters.
func (b *Bitstogram) Params() BitstogramParams { return b.p }

// Group returns user userIdx's (repetition, bit) assignment.
func (b *Bitstogram) Group(userIdx int) (rep, bit int) {
	g := b.partHash.Range(uint64(userIdx), b.reps*b.bits)
	return g / b.bits, g % b.bits
}

func itemBit(x []byte, m int) uint64 {
	return uint64(x[m/8] >> uint(7-m%8) & 1)
}

// Report runs user userIdx's client computation for item x.
func (b *Bitstogram) Report(x []byte, userIdx int, rng *rand.Rand) (BitstogramReport, error) {
	if len(x) != b.p.ItemBytes {
		return BitstogramReport{}, fmt.Errorf("baseline: item length %d, want %d", len(x), b.p.ItemBytes)
	}
	rep, bit := b.Group(userIdx)
	y := uint64(b.hs[rep].Range(b.fold.Fold(x), b.t))
	v := y<<1 | itemBit(x, bit)
	dirRep, err := b.direct[rep][bit].Report(v, rng)
	if err != nil {
		return BitstogramReport{}, err
	}
	return BitstogramReport{
		Rep:  rep,
		Bit:  bit,
		Dir:  dirRep,
		Conf: b.conf.Report(x, userIdx, rng),
	}, nil
}

// Absorb folds one report into the server state.
func (b *Bitstogram) Absorb(rep BitstogramReport) error {
	if rep.Rep < 0 || rep.Rep >= b.reps || rep.Bit < 0 || rep.Bit >= b.bits {
		return fmt.Errorf("baseline: report group (%d,%d) out of range", rep.Rep, rep.Bit)
	}
	if err := b.direct[rep.Rep][rep.Bit].Absorb(rep.Dir); err != nil {
		return err
	}
	if err := b.conf.Absorb(rep.Conf); err != nil {
		return err
	}
	b.groupN[rep.Rep][rep.Bit]++
	b.absorbed++
	return nil
}

// Identify reconstructs candidates (one per repetition and hash cell),
// confirms their frequencies and returns the union sorted by decreasing
// count. Candidates whose confirmed estimate falls below minCount are
// dropped; pass 0 to keep everything.
func (b *Bitstogram) Identify(minCount float64) ([]Estimate, error) {
	for k := range b.direct {
		for m := range b.direct[k] {
			b.direct[k][m].Finalize()
		}
	}
	seen := make(map[string]bool)
	var candidates [][]byte
	for k := 0; k < b.reps; k++ {
		for y := 0; y < b.t; y++ {
			item := make([]byte, b.p.ItemBytes)
			mass := 0.0
			for m := 0; m < b.bits; m++ {
				e0 := b.direct[k][m].Estimate(uint64(y) << 1)
				e1 := b.direct[k][m].Estimate(uint64(y)<<1 | 1)
				if e1 > e0 {
					item[m/8] |= 1 << uint(7-m%8)
					mass += e1
				} else {
					mass += e0
				}
			}
			// Skip cells with no plausible mass at all (sum of per-bit
			// estimates below a loose noise floor) to keep the candidate
			// set near O(T) genuinely-supported cells.
			if mass <= 0 {
				continue
			}
			// The candidate must hash back to its cell; anything else was
			// assembled from pure noise.
			if b.hs[k].Range(b.fold.Fold(item), b.t) != y {
				continue
			}
			if !seen[string(item)] {
				seen[string(item)] = true
				candidates = append(candidates, item)
			}
		}
	}
	b.conf.Finalize()
	out := make([]Estimate, 0, len(candidates))
	for _, it := range candidates {
		c := b.conf.Estimate(it)
		if c >= minCount {
			out = append(out, Estimate{Item: it, Count: c})
		}
	}
	proto.SortEstimates(out)
	return out, nil
}

// MinRecoverableFrequency mirrors core.Params.MinRecoverableFrequency for
// the baseline: each (rep, bit) group holds n/(K·bits) users, so
//
//	f* ≈ 4·CEps(ε/2)·sqrt(n·bits·K)
//
// — the extra sqrt(K) = sqrt(log(1/β)) versus PrivateExpanderSketch is
// exactly the sub-optimality of Theorem 3.3 item 2.
func (b *Bitstogram) MinRecoverableFrequency() float64 {
	e := math.Exp(b.p.Eps / 2)
	ceps := (e + 1) / (e - 1)
	return 4 * ceps * math.Sqrt(float64(b.p.N)*float64(b.bits)*float64(b.reps))
}

// EstimateFrequency exposes the confirmation oracle after Identify.
func (b *Bitstogram) EstimateFrequency(x []byte) float64 { return b.conf.Estimate(x) }

// SketchBytes returns resident server memory.
func (b *Bitstogram) SketchBytes() int {
	parts := []sketchSized{b.conf}
	for k := range b.direct {
		for m := range b.direct[k] {
			parts = append(parts, b.direct[k][m])
		}
	}
	return totalSketchBytes(parts...)
}

// BytesPerReport returns the payload size of one user message.
func (b *Bitstogram) BytesPerReport() int { return bitstogramPayloadBytes }
