package expander

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestCompleteGraphFallback(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	e, err := New(5, 8, 0.9, rng, 10) // m <= d+1 → K_5
	if err != nil {
		t.Fatal(err)
	}
	if e.M() != 5 || e.D() != 4 {
		t.Fatalf("K_5 has m=%d d=%d", e.M(), e.D())
	}
	if e.Lambda() != 1 {
		t.Errorf("K_5 lambda = %f, want 1", e.Lambda())
	}
	for u := 0; u < 5; u++ {
		if len(e.Neighbors(u)) != 4 {
			t.Fatalf("vertex %d has %d neighbors", u, len(e.Neighbors(u)))
		}
		for _, v := range e.Neighbors(u) {
			if v == u {
				t.Fatal("self neighbor in complete graph")
			}
		}
	}
}

func TestRandomRegularProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for _, cfg := range []struct{ m, d int }{{16, 4}, {32, 6}, {64, 8}, {17, 4}} {
		e, err := New(cfg.m, cfg.d, 0.95*float64(cfg.d), rng, 100)
		if err != nil {
			t.Fatalf("m=%d d=%d: %v", cfg.m, cfg.d, err)
		}
		// Regularity.
		for u := 0; u < cfg.m; u++ {
			if len(e.Neighbors(u)) != cfg.d {
				t.Fatalf("m=%d d=%d: vertex %d degree %d", cfg.m, cfg.d, u, len(e.Neighbors(u)))
			}
		}
		// Symmetry: u appears in each neighbor's list as many times as the
		// neighbor appears in u's.
		count := func(list []int, x int) int {
			c := 0
			for _, v := range list {
				if v == x {
					c++
				}
			}
			return c
		}
		for u := 0; u < cfg.m; u++ {
			for _, v := range e.Neighbors(u) {
				if count(e.Neighbors(v), u) != count(e.Neighbors(u), v) {
					t.Fatalf("asymmetric adjacency between %d and %d", u, v)
				}
			}
		}
		// Connectivity (union of Hamiltonian cycles is connected by design,
		// but verify by walking Neighbors from vertex 0).
		reached := map[int]bool{0: true}
		stack := []int{0}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range e.Neighbors(u) {
				if !reached[v] {
					reached[v] = true
					stack = append(stack, v)
				}
			}
		}
		if len(reached) != cfg.m {
			t.Fatalf("m=%d d=%d: %d of %d vertices reachable", cfg.m, cfg.d, len(reached), cfg.m)
		}
	}
}

func TestSpectralGapCertificate(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	e, err := New(64, 8, 0.85*8, rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	if e.Lambda() > 0.85*8 {
		t.Fatalf("certified lambda %f exceeds requested bound", e.Lambda())
	}
	// Ramanujan-quality graphs have λ2 >= 2*sqrt(d-1) - o(1); the estimate
	// must not be absurdly small either.
	if e.Lambda() < math.Sqrt(float64(e.D()))-1 {
		t.Fatalf("lambda %f suspiciously small", e.Lambda())
	}
}

func TestSecondEigenvalueKnownGraphs(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	// Complete graph K_8: adjacency eigenvalues are 7 and -1 → |λ2| = 1.
	nbrs := make([][]int, 8)
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			if v != u {
				nbrs[u] = append(nbrs[u], v)
			}
		}
	}
	lam := SecondEigenvalue(nbrs, 7, rng)
	if lam < 0.9 || lam > 1.2 {
		t.Fatalf("K_8 λ2 estimate = %f, want ~1", lam)
	}
	// Cycle C_8: eigenvalues 2cos(2πk/8) → |λ2| = sqrt(2) ≈ 1.414... but the
	// second largest in magnitude is 2cos(π) = -2? No: C_8 eigenvalues are
	// 2cos(2πk/8), k=0..7 → {2, √2, 0, -√2, -2}. |λ2| = 2 (bipartite).
	cyc := make([][]int, 8)
	for u := 0; u < 8; u++ {
		cyc[u] = []int{(u + 1) % 8, (u + 7) % 8}
	}
	lam = SecondEigenvalue(cyc, 2, rng)
	if lam < 1.85 || lam > 2.05 {
		t.Fatalf("C_8 λ estimate = %f, want ~2 (bipartite)", lam)
	}
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	if _, err := New(1, 4, 0.9, rng, 10); err == nil {
		t.Error("m=1 accepted")
	}
	if _, err := New(16, 3, 0.9, rng, 10); err == nil {
		t.Error("odd degree accepted")
	}
	if _, err := New(16, 0, 0.9, rng, 10); err == nil {
		t.Error("zero degree accepted")
	}
	// Impossible spectral demand must fail loudly, not loop forever.
	if _, err := New(64, 4, 0.1, rng, 5); err == nil {
		t.Error("impossible lambda accepted")
	}
}

func TestDeterminismGivenSeed(t *testing.T) {
	e1, err := New(32, 6, 0.9*6, rand.New(rand.NewPCG(7, 7)), 50)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(32, 6, 0.9*6, rand.New(rand.NewPCG(7, 7)), 50)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 32; u++ {
		for k := 0; k < 6; k++ {
			if e1.Neighbor(u, k) != e2.Neighbor(u, k) {
				t.Fatal("expander not deterministic for fixed seed")
			}
		}
	}
}
