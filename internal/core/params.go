// Package core implements PrivateExpanderSketch, the paper's primary
// contribution (Algorithm 1, Theorem 3.13): an ε-LDP heavy-hitters protocol
// with worst-case error O((1/ε)·sqrt(n·log(|X|/β))), optimal in all
// parameters including the failure probability β.
//
// Protocol shape (Section 3.3):
//
//  1. Users are partitioned into M groups. User i in group m reports, at
//     privacy ε/2, the composite value (g(x_i), h_m(x_i), Ẽnc(x_i)_m) into a
//     small-domain DirectHistogram oracle for group m (Theorem 3.8), where g
//     is a Θ(log|X|)-wise independent super-bucket hash and Ẽnc is the
//     unique-list-recoverable code payload of Theorem 3.6.
//  2. For every (m, b, y) the server takes the arg-max payload z and admits
//     (y, z) into list L^b_m if its estimate clears a threshold, capping the
//     list length (steps 2-3 of Algorithm 1; we admit the top-cap by
//     estimate, which dominates the paper's first-come rule and is
//     deterministic).
//  3. Each bucket's lists are decoded, Ĥ^b = Dec(L^b_1..L^b_M) (step 4).
//  4. The same users' second report halves (privacy ε/2) feed a Hashtogram
//     confirmation oracle (Theorem 3.7) that estimates the frequency of each
//     candidate (steps 5-6); each user therefore sends exactly one message
//     carrying both halves, and the whole protocol is non-interactive ε-LDP
//     by basic composition.
package core

import (
	"fmt"
	"math"
	"runtime"

	"ldphh/internal/hadamard"
	"ldphh/internal/listrec"
)

// Params configures PrivateExpanderSketch. Zero fields are derived from
// Eps, N and ItemBytes with the paper's formulas scaled to practical
// constants; the rest of Theorem 3.13's constants (one code symbol per
// coordinate, g's independence, the list cap ℓ and the confirmation
// oracle's shape) are derived where they are used. See DESIGN.md §3.
type Params struct {
	Eps       float64 // total privacy budget per user (split ε/2 + ε/2)
	N         int     // expected number of users
	ItemBytes int     // fixed item width; |X| = 256^ItemBytes

	// Coordinates and code (Theorem 3.6). M defaults to 2·ItemBytes (one
	// Reed-Solomon symbol per coordinate, rate 1/2).
	M         int
	Y         int     // per-coordinate hash range (power of two), default 512
	F         int     // neighbour fingerprint range (power of two), default 2
	D         int     // expander degree, default 4
	B         int     // super-buckets for g, default from ε√n/log^1.5|X| (min 1)
	TauFactor float64 // admission threshold in units of CEps(ε/2)·sqrt(n_m);
	// default sqrt(2·ln(cells))+1 so τ dominates the maximum of the
	// per-coordinate noise over all B·Y·Z cells (the role of C_f in step 3b)

	// Workers bounds the goroutine pool Identify uses for the per-coordinate
	// finalize and argmax scan, the per-bucket decode and the confirmation
	// finalize and estimates, and the pool Restore and MergeSnapshot
	// use to validate a snapshot's oracle blobs and add them, straight from
	// the snapshot bytes, into the counters. 0 derives runtime.GOMAXPROCS(0);
	// 1 forces the serial path. Workers is a pure throughput knob: Identify
	// output, snapshot bytes and load errors are bit-identical at every
	// worker count (see the package determinism contract in doc.go), and the
	// field does not influence any public randomness, so clients and servers
	// may disagree on it freely.
	Workers int

	Seed uint64 // public randomness seed
}

// chunkBytes is the number of Reed-Solomon symbols each coordinate carries:
// one, so a codeword of M = 2·ItemBytes symbols is the rate-1/2 code.
const chunkBytes = 1

func (p *Params) setDefaults() error {
	if p.Eps <= 0 {
		return fmt.Errorf("core: Eps must be positive, got %v", p.Eps)
	}
	if p.N <= 0 {
		return fmt.Errorf("core: N must be positive, got %d", p.N)
	}
	if p.ItemBytes < 1 || p.ItemBytes > 64 {
		return fmt.Errorf("core: ItemBytes must be in [1,64], got %d", p.ItemBytes)
	}
	if p.M == 0 {
		p.M = max(4, 2*p.ItemBytes)
	}
	if p.Y == 0 {
		p.Y = 512
	}
	if p.F == 0 {
		p.F = 2
	}
	if p.D == 0 {
		p.D = 4
	}
	if p.B == 0 {
		b := p.Eps * math.Sqrt(float64(p.N)) / (10 * math.Pow(p.logX(), 1.5))
		p.B = int(math.Max(1, math.Floor(b)))
	}
	if p.TauFactor == 0 {
		// The admission threshold must exceed the *maximum* of the
		// sub-gaussian cell noise over the whole per-coordinate report
		// domain, or every (b, y) pair admits a junk arg-max entry and the
		// decode graph floods. E[max of k gaussians] ≈ σ·sqrt(2·ln k).
		cells := float64(p.B*p.Y) * math.Exp2(float64(p.zbits()))
		p.TauFactor = math.Sqrt(2*math.Log(cells)) + 1
	}
	if p.B < 1 {
		return fmt.Errorf("core: B must be >= 1, got %d", p.B)
	}
	if p.TauFactor <= 0 {
		return fmt.Errorf("core: TauFactor must be positive, got %v", p.TauFactor)
	}
	if p.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d", p.Workers)
	}
	if p.Workers == 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// logX is log2|X| = 8·ItemBytes.
func (p Params) logX() float64 { return 8 * float64(p.ItemBytes) }

// gWise is the independence of the super-bucket hash g: Θ(log|X|), at
// least 8.
func (p Params) gWise() int { return int(math.Max(8, p.logX()/4)) }

// listCap is ℓ, the length cap of every list L^b_m: 4·log2|X|.
func (p Params) listCap() int { return int(4 * p.logX()) }

// zbits returns the packed payload width of the Theorem 3.6 code for these
// parameters (chunk bytes plus one fingerprint per expander neighbour,
// accounting for the complete-graph fallback at tiny M).
func (p Params) zbits() int {
	dEff := p.D
	if p.M <= p.D+1 {
		dEff = p.M - 1
	}
	fbits := 0
	for f := p.F; f > 1; f >>= 1 {
		fbits++
	}
	return 8*chunkBytes + dEff*fbits
}

// codeParams derives the Theorem 3.6 code parameters.
func (p Params) codeParams() listrec.Params {
	return listrec.Params{
		ItemBytes:  p.ItemBytes,
		M:          p.M,
		ChunkBytes: chunkBytes,
		Y:          p.Y,
		F:          p.F,
		D:          p.D,
	}
}

// CellsPerCoordinate returns the size of the per-coordinate report domain
// [B]x[Y]x[Z] after padding; it bounds both the per-coordinate server memory
// (8 bytes per cell during aggregation) and the step-2 scan cost.
func (p Params) CellsPerCoordinate(zbits int) int {
	return hadamard.NextPow2(p.B * p.Y * (1 << uint(zbits)))
}

// MinRecoverableFrequency estimates the smallest multiplicity this
// configuration reliably identifies: a heavy hitter needs its per-coordinate
// count f/M to clear the admission threshold τ = TauFactor·σ plus ~2σ of its
// own estimate noise, where σ = CEps(ε/2)·sqrt(n/M). This is the
// Theorem 3.13 item-2 bound with this implementation's concrete constants:
//
//	f* ≈ (TauFactor+2)·CEps(ε/2)·sqrt(n·M)
//
// Note sqrt(n·M) = sqrt(n·log|X|/loglog|X|) — the paper's optimal shape, and
// TauFactor carries the sqrt(log) of the per-coordinate domain size exactly
// like the paper's C_f·loglog|X| calibration.
func (p Params) MinRecoverableFrequency() float64 {
	eps1 := p.Eps / 2
	e := math.Exp(eps1)
	ceps := (e + 1) / (e - 1)
	return (p.TauFactor + 2) * ceps * math.Sqrt(float64(p.N)*float64(p.M))
}
