package baseline

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"ldphh/internal/freqoracle"
	"ldphh/internal/hashing"
	"ldphh/internal/proto"
)

// TreeHist is the prefix-tree heavy-hitters protocol of Bassily, Nissim,
// Stemmer and Thakurta (NIPS 2017) — the companion to Bitstogram in
// reference [3]. Users are partitioned across the L = 8·ItemBytes bit
// levels of the domain's prefix tree; a user at level ℓ reports its item's
// (ℓ+1)-bit prefix into that level's Hashtogram. The server walks the tree
// top-down, extending surviving prefixes one bit at a time and pruning by
// estimated frequency, then confirms the full-length survivors.
//
// Its error carries the same sqrt(n·L) population-splitting factor as
// Bitstogram but avoids repetitions; like Bitstogram, and unlike
// PrivateExpanderSketch, driving the failure probability β down requires
// retuning thresholds by sqrt(log(1/β)).
type TreeHist struct {
	reportTally
	p           TreeHistParams
	survivorCap int // max surviving prefixes per level: 4·sqrt(N)
	levels      int
	partHash    hashing.KWise
	oracles     []*freqoracle.Hashtogram
	conf        *freqoracle.Hashtogram
	levelN      []int
}

// TreeHistParams configures TreeHist.
type TreeHistParams struct {
	Eps       float64
	N         int
	ItemBytes int
	Seed      uint64
}

// treeHistTau is the pruning threshold in per-level noise deviations.
const treeHistTau = 3

func (p *TreeHistParams) setDefaults() error {
	if p.Eps <= 0 {
		return fmt.Errorf("baseline: Eps must be positive")
	}
	if p.N <= 0 {
		return fmt.Errorf("baseline: N must be positive")
	}
	if p.ItemBytes < 1 || p.ItemBytes > 64 {
		return fmt.Errorf("baseline: ItemBytes must be in [1,64]")
	}
	return nil
}

// TreeHistReport is one user's message.
type TreeHistReport struct {
	Level int
	Pref  freqoracle.HashtogramReport
	Conf  freqoracle.HashtogramReport
}

// NewTreeHist constructs the protocol.
func NewTreeHist(params TreeHistParams) (*TreeHist, error) {
	if err := params.setDefaults(); err != nil {
		return nil, err
	}
	rng := hashing.Seeded(params.Seed, 0x54726565)
	levels := 8 * params.ItemBytes
	t := &TreeHist{
		p:           params,
		survivorCap: 4 * int(math.Sqrt(float64(params.N))),
		levels:      levels,
		partHash:    hashing.NewKWise(2, rng),
		oracles:     make([]*freqoracle.Hashtogram, levels),
		levelN:      make([]int, levels),
	}
	var err error
	for l := 0; l < levels; l++ {
		t.oracles[l], err = freqoracle.NewHashtogram(freqoracle.HashtogramParams{
			Eps: params.Eps / 2,
			N:   params.N/levels + 1,
			// Few rows: each level answers only ~2·survivorCap queries,
			// and the sketch-row factor sqrt(Rows) multiplies the level
			// noise after population rescaling, so depth is expensive here.
			Rows: 8,
			Seed: rng.Uint64(),
		})
		if err != nil {
			return nil, err
		}
	}
	t.conf, err = freqoracle.NewHashtogram(freqoracle.HashtogramParams{
		Eps:  params.Eps / 2,
		N:    params.N,
		Seed: rng.Uint64(),
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Params returns the defaulted parameters.
func (t *TreeHist) Params() TreeHistParams { return t.p }

// Level returns user userIdx's level assignment (public).
func (t *TreeHist) Level(userIdx int) int {
	return t.partHash.Range(uint64(userIdx), t.levels)
}

// prefixKey canonically encodes the first `bits` bits of x for oracle
// queries: the level byte followed by the prefix bytes with the unused low
// bits of the last byte zeroed.
func prefixKey(x []byte, bits int) []byte {
	nBytes := (bits + 7) / 8
	key := make([]byte, 1+nBytes)
	key[0] = byte(bits)
	copy(key[1:], x[:nBytes])
	if rem := bits % 8; rem != 0 {
		key[nBytes] &= byte(0xff << uint(8-rem))
	}
	return key
}

// Report runs user userIdx's client computation for item x.
func (t *TreeHist) Report(x []byte, userIdx int, rng *rand.Rand) (TreeHistReport, error) {
	if len(x) != t.p.ItemBytes {
		return TreeHistReport{}, fmt.Errorf("baseline: item length %d, want %d", len(x), t.p.ItemBytes)
	}
	level := t.Level(userIdx)
	return TreeHistReport{
		Level: level,
		Pref:  t.oracles[level].Report(prefixKey(x, level+1), userIdx, rng),
		Conf:  t.conf.Report(x, userIdx, rng),
	}, nil
}

// Absorb folds one report into the server state.
func (t *TreeHist) Absorb(rep TreeHistReport) error {
	if rep.Level < 0 || rep.Level >= t.levels {
		return fmt.Errorf("baseline: report level %d out of range", rep.Level)
	}
	if err := t.oracles[rep.Level].Absorb(rep.Pref); err != nil {
		return err
	}
	if err := t.conf.Absorb(rep.Conf); err != nil {
		return err
	}
	t.levelN[rep.Level]++
	t.absorbed++
	return nil
}

// threshold is the per-level pruning bound, extrapolated to population
// counts: treeHistTau deviations of the level oracle's noise times the
// level-splitting factor L.
func (t *TreeHist) threshold(level int) float64 {
	nl := float64(t.levelN[level])
	if nl < 1 {
		nl = 1
	}
	e := math.Exp(t.p.Eps / 2)
	ceps := (e + 1) / (e - 1)
	rows := float64(t.oracles[level].Params().Rows)
	scale := float64(t.p.N) / nl
	return treeHistTau * scale * ceps * math.Sqrt(nl*rows)
}

// Identify walks the prefix tree and returns confirmed estimates sorted by
// decreasing count.
func (t *TreeHist) Identify() ([]Estimate, error) {
	for _, o := range t.oracles {
		o.Finalize()
	}
	// Walk levels: candidates hold byte-packed prefixes.
	type cand struct{ bytes []byte }
	candidates := []cand{{bytes: make([]byte, t.p.ItemBytes)}} // root: empty prefix
	for level := 0; level < t.levels; level++ {
		o := t.oracles[level]
		nl := t.levelN[level]
		scale := 1.0
		if nl > 0 {
			scale = float64(t.p.N) / float64(nl)
		}
		tau := t.threshold(level)
		type scored struct {
			c   cand
			est float64
		}
		var next []scored
		bits := level + 1
		for _, c := range candidates {
			for _, bit := range []byte{0, 1} {
				child := append([]byte(nil), c.bytes...)
				if bit == 1 {
					child[level/8] |= 1 << uint(7-level%8)
				}
				est := scale * o.Estimate(prefixKey(child, bits))
				if est >= tau {
					next = append(next, scored{c: cand{bytes: child}, est: est})
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].est > next[j].est })
		if len(next) > t.survivorCap {
			next = next[:t.survivorCap]
		}
		candidates = candidates[:0]
		for _, s := range next {
			candidates = append(candidates, s.c)
		}
		if len(candidates) == 0 {
			break
		}
	}
	t.conf.Finalize()
	out := make([]Estimate, 0, len(candidates))
	for _, c := range candidates {
		out = append(out, Estimate{Item: c.bytes, Count: t.conf.Estimate(c.bytes)})
	}
	proto.SortEstimates(out)
	return out, nil
}

// MinRecoverableFrequency mirrors the other protocols' floor: the
// population-split threshold at the deepest level.
func (t *TreeHist) MinRecoverableFrequency() float64 {
	e := math.Exp(t.p.Eps / 2)
	ceps := (e + 1) / (e - 1)
	// Per level: n/L users on an 8-row sketch; extrapolated by L:
	// treeHistTau·ceps·sqrt(n·L·8).
	return treeHistTau * ceps * math.Sqrt(float64(t.p.N)*float64(t.levels)*8)
}

// EstimateFrequency exposes the confirmation oracle after Identify.
func (t *TreeHist) EstimateFrequency(x []byte) float64 { return t.conf.Estimate(x) }

// SketchBytes returns resident server memory.
func (t *TreeHist) SketchBytes() int {
	parts := []sketchSized{t.conf}
	for _, o := range t.oracles {
		parts = append(parts, o)
	}
	return totalSketchBytes(parts...)
}

// BytesPerReport returns the payload size of one user message.
func (t *TreeHist) BytesPerReport() int { return treeHistPayloadBytes }
