// Package dist collects the small probability-and-statistics toolkit the
// rest of the module leans on: summary statistics over float64 samples
// (Mean, Median, Quantile), total-variation distance between finite
// distributions, discrete samplers (Walker's alias method and a Zipf
// popularity law built on it), exact binomial tail probabilities with the
// paper's Theorem A.4 anti-concentration lower bound, and uniform sampling
// from a Hamming shell.
//
// Consumers across the module:
//
//   - freqoracle.Hashtogram takes the count-median estimate with Median and
//     reports per-row spread with Quantile (Theorem 3.7's median-of-rows
//     estimator).
//   - composition (Theorem 5.1) samples the complement of the good Hamming
//     shell with an Alias over distance classes and HammingShell within a
//     class.
//   - lowerbound and grouposition reduce Monte-Carlo trials to (1-β)
//     quantile tables with Quantile; cmd/experiments checks Theorem A.4 with
//     BinomialTailGE against BinomialAntiConcentration.
//   - workload draws Zipf-popular items via NewZipf; genprot compares
//     induced and original report laws with TVDist.
package dist

import (
	"math"
	"math/rand/v2"
	"sort"
)

// Mean returns the arithmetic mean of xs. It panics on an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("dist: Mean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs without mutating it: the midpoint order
// statistic for odd lengths, the average of the two central order statistics
// for even lengths (so Median(xs) == Quantile(xs, 0.5) exactly). It panics on
// an empty slice.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile of xs (q in [0, 1]) without mutating it,
// using linear interpolation between adjacent order statistics: the value at
// fractional rank q·(len(xs)-1). Quantile(xs, 0) is the minimum and
// Quantile(xs, 1) the maximum. It panics on an empty slice or q outside
// [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("dist: Quantile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile over a sample the caller has already sorted
// ascending: the same linear interpolation at fractional rank q·(len-1),
// with no copy and no allocation. It is the hot-path form behind
// Hashtogram's per-query median/IQR; Quantile delegates to it, so the two
// agree bit-for-bit on identical samples. It panics on an empty slice or q
// outside [0, 1]; an unsorted input silently yields garbage.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("dist: QuantileSorted of empty slice")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic("dist: QuantileSorted fraction outside [0,1]")
	}
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return sorted[lo]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TVDist returns the total-variation distance (1/2)·Σ|p_i − q_i| between two
// distributions given as aligned probability vectors. The result is in
// [0, 1] for any pair of probability vectors and is symmetric in its
// arguments. It panics if the lengths differ.
func TVDist(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("dist: TVDist over misaligned supports")
	}
	sum := 0.0
	for i := range p {
		sum += math.Abs(p[i] - q[i])
	}
	return sum / 2
}

// Alias is a Walker/Vose alias table: after O(n) preprocessing it draws from
// an arbitrary discrete distribution over {0, ..., n-1} in O(1) with two
// uniform variates. The composition package uses it to sample the Hamming
// distance class of M̃'s complement draw; Zipf builds its rank sampler on it.
type Alias struct {
	prob  []float64 // acceptance probability of the home column
	alias []int     // overflow target when the home column is rejected
}

// NewAlias builds the alias table for the given non-negative weights (they
// need not be normalized). It panics if weights is empty, contains a
// negative or non-finite entry, or sums to zero.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("dist: NewAlias with no weights")
	}
	sum := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("dist: NewAlias weight must be finite and non-negative")
		}
		sum += w
	}
	if sum <= 0 {
		panic("dist: NewAlias weights sum to zero")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int, n)}
	// Vose's stable construction: columns scaled to mean 1 are split into
	// under- and over-full work lists; each underfull column is topped up by
	// exactly one overfull donor.
	scaled := make([]float64, n)
	var small, large []int
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Residual columns are full up to float round-off.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// N returns the support size of the table.
func (a *Alias) N() int { return len(a.prob) }

// Sample draws one index from the table's distribution.
func (a *Alias) Sample(rng *rand.Rand) int {
	i := rng.IntN(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Prob returns the exact probability the table assigns to index i (useful
// for goodness-of-fit tests against the sampler).
func (a *Alias) Prob(i int) float64 {
	p := a.prob[i] / float64(len(a.prob))
	for j := range a.alias {
		if a.alias[j] == i && j != i {
			p += (1 - a.prob[j]) / float64(len(a.prob))
		}
	}
	return p
}

// Zipf draws ranks from the power law Pr[r] ∝ 1/(r+1)^s over
// {0, ..., support-1}. Exponent s = 0 degenerates to the uniform
// distribution, which workload.Uniform relies on; any s >= 0 is accepted
// (unlike math/rand/v2's Zipf, which requires s > 1).
type Zipf struct {
	alias *Alias
}

// NewZipf builds the rank sampler. It panics if support < 1, or if s is
// negative or non-finite.
func NewZipf(support int, s float64) *Zipf {
	if support < 1 {
		panic("dist: NewZipf support must be positive")
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		panic("dist: NewZipf exponent must be finite and non-negative")
	}
	weights := make([]float64, support)
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -s)
	}
	return &Zipf{alias: NewAlias(weights)}
}

// Sample draws one rank in [0, support).
func (z *Zipf) Sample(rng *rand.Rand) int {
	return z.alias.Sample(rng)
}

// BinomialTailGE returns the exact upper tail Pr[Bin(n, p) >= k], summed in
// log space for numerical stability far into the tail. cmd/experiments pits
// it against BinomialAntiConcentration to verify Theorem A.4 numerically.
func BinomialTailGE(n, k int, p float64) float64 {
	if n < 0 || p < 0 || p > 1 || math.IsNaN(p) {
		panic("dist: BinomialTailGE needs n >= 0 and p in [0,1]")
	}
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	if p == 0 {
		return 0 // k >= 1 mass requires at least one success
	}
	if p == 1 {
		return 1 // all n successes, and k <= n
	}
	logP := math.Log(p)
	logQ := math.Log1p(-p)
	sum := 0.0
	for i := k; i <= n; i++ {
		sum += math.Exp(logChoose(n, i) + float64(i)*logP + float64(n-i)*logQ)
	}
	return math.Min(sum, 1)
}

// BinomialAntiConcentration returns the Theorem A.4 lower bound on the upper
// tail: for sqrt(3np) <= t <= np/2,
//
//	Pr[Bin(n, p) >= np + t] >= exp(-9t²/(np)).
//
// It is the anti-concentration engine behind the Section 7 lower bound
// (Theorem 7.2 via Theorem A.5); the lowerbound package's harness checks the
// measured error quantiles against its shape.
func BinomialAntiConcentration(n int, p, t float64) float64 {
	if n < 1 || p <= 0 || p > 1 {
		panic("dist: BinomialAntiConcentration needs n >= 1 and p in (0,1]")
	}
	return math.Exp(-9 * t * t / (float64(n) * p))
}

// logChoose returns log C(n, k) via log-gamma.
func logChoose(n, k int) float64 {
	lg := func(x float64) float64 {
		v, _ := math.Lgamma(x)
		return v
	}
	return lg(float64(n)+1) - lg(float64(k)+1) - lg(float64(n-k)+1)
}

// HammingShell returns a uniform sample from the set of points at Hamming
// distance exactly d from x in {0,1}^k, with x packed little-endian as k
// bits in []uint64 words (the composition package's bit layout). x is not
// mutated. It panics if d is outside [0, k] or x has the wrong word count.
//
// The d flip positions are chosen by Floyd's sampling algorithm: O(d)
// expected time and memory regardless of k, which keeps M̃'s rare
// complement-sampling path cheap even for large k.
func HammingShell(x []uint64, k, d int, rng *rand.Rand) []uint64 {
	if len(x) != (k+63)/64 {
		panic("dist: HammingShell input word count mismatch")
	}
	if d < 0 || d > k {
		panic("dist: HammingShell distance outside [0,k]")
	}
	y := append([]uint64(nil), x...)
	chosen := make(map[int]struct{}, d)
	for j := k - d; j < k; j++ {
		t := rng.IntN(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		y[t/64] ^= 1 << uint(t%64)
	}
	return y
}

// splitmix64 is the SplitMix64 finalizer: a fast bijective mixer whose
// output sequence over consecutive inputs passes BigCrush. It is the
// standard way to expand one seed word into decorrelated stream seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix folds any number of seed words into one well-distributed word by
// chaining the SplitMix64 finalizer. Adjacent inputs (seed, 0), (seed, 1),
// ... land far apart in the output space, so Mix(seed, i) is the canonical
// way to label per-shard or per-bucket randomness derived from one root
// seed.
func Mix(words ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h = splitmix64(h ^ w)
	}
	return h
}

// SubStream returns a deterministic PCG generator for the (seed, stream)
// pair. Distinct streams of the same seed are decorrelated even for
// adjacent stream indices, and the construction is pure: the same pair
// always yields a generator producing the same sequence.
func SubStream(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(Mix(seed, stream), Mix(stream, 0x5375625374726561, seed)))
}
