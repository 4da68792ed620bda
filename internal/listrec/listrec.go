// Package listrec implements the (α, ℓ, L)-unique-list-recoverable code of
// the paper's Theorem 3.6 (proved in Appendix B, after Larsen, Nelson,
// Nguyen and Thorup, FOCS 2016).
//
// Encoding: the item is encoded with a constant-rate Reed-Solomon code
// (internal/ecc; DESIGN.md substitution S1) and the codeword is split into M
// per-coordinate chunks. The m-th code symbol is
//
//	Enc(x)_m = ( h_m(x),  Ẽnc(x)_m )
//	Ẽnc(x)_m = ( chunk_m(x), φ(h_{Γ(m)_1}(x)), ..., φ(h_{Γ(m)_d}(x)) )
//
// where h_1..h_M are pairwise independent hashes into [Y], Γ is a d-regular
// spectral expander on the M coordinates, and φ: [Y] -> [F] truncates hash
// values to fingerprints (setting F = Y recovers the paper's construction
// verbatim; see DESIGN.md substitution S4).
//
// Decoding builds the layered graph on [M]x[Y] whose edges are the
// *mutually* suggested expander edges. Appendix B finds each item's
// corrupted copy of Γ there by spectral clustering; this package finds it
// by local search instead (DESIGN.md substitution S2): it grows an
// assignment from every vertex along linked edges, and when growth finds
// nothing new it walks every linked choice over six half-size coordinate
// sets under a fixed budget. Each assignment is RS-decoded with its
// unassigned coordinates erased, and candidates are verified by
// re-encoding, which enforces the (1-α)-agreement condition of Definition
// 3.5. Decoding draws no randomness.
package listrec

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"ldphh/internal/ecc"
	"ldphh/internal/expander"
	"ldphh/internal/hashing"
)

// Symbol is one coordinate of a codeword: the hash value Y in [0, Params.Y)
// and the packed payload Z (chunk bytes in the low bits, then d fingerprints
// of log2(F) bits each).
type Symbol struct {
	Y int
	Z uint64
}

// Params configures the code.
type Params struct {
	ItemBytes  int // length of domain items (RS data symbols)
	M          int // number of coordinates; M*ChunkBytes = RS codeword length
	ChunkBytes int // RS symbols carried per coordinate (>= 1)
	Y          int // per-coordinate hash range, power of two
	F          int // fingerprint range, power of two, F <= Y
	D          int // expander degree (even)
}

const (
	// lambdaFrac is the expander's spectral certificate: λ2 <= lambdaFrac·D.
	lambdaFrac = 0.9
	// minAgree is the verification threshold as a fraction of M.
	minAgree = 0.6
)

func (p *Params) setDefaults() {
	if p.ChunkBytes == 0 {
		p.ChunkBytes = 1
	}
}

func (p Params) validate() error {
	if p.ItemBytes <= 0 {
		return fmt.Errorf("listrec: ItemBytes must be positive, got %d", p.ItemBytes)
	}
	if p.M < 2 {
		return fmt.Errorf("listrec: need M >= 2, got %d", p.M)
	}
	n := p.M * p.ChunkBytes
	if n <= p.ItemBytes {
		return fmt.Errorf("listrec: codeword %d symbols not longer than message %d (rate >= 1)",
			n, p.ItemBytes)
	}
	if n > 255 {
		return fmt.Errorf("listrec: codeword %d symbols exceeds RS limit 255", n)
	}
	if p.Y < 2 || p.Y&(p.Y-1) != 0 {
		return fmt.Errorf("listrec: Y must be a power of two >= 2, got %d", p.Y)
	}
	if p.F < 2 || p.F&(p.F-1) != 0 || p.F > p.Y {
		return fmt.Errorf("listrec: F must be a power of two in [2, Y], got %d", p.F)
	}
	if p.D < 2 || p.D%2 != 0 {
		return fmt.Errorf("listrec: D must be even and >= 2, got %d", p.D)
	}
	zbits := 8*p.ChunkBytes + effectiveD(p.M, p.D)*log2(p.F)
	if zbits > 62 {
		return fmt.Errorf("listrec: packed symbol needs %d bits > 62; shrink ChunkBytes, D or F", zbits)
	}
	return nil
}

// effectiveD is the degree the expander will actually have (complete-graph
// fallback for tiny M).
func effectiveD(m, d int) int {
	if m <= d+1 {
		return m - 1
	}
	return d
}

func log2(v int) int { return bits.Len(uint(v)) - 1 }

// Code is a constructed unique-list-recoverable code. Safe for concurrent
// encoding after construction.
type Code struct {
	p      Params
	rs     *ecc.Code
	exp    *expander.Expander
	hs     []hashing.KWise
	fold   hashing.Fingerprinter
	fpHash hashing.KWise // per-slot fingerprint hash (see fingerprint)
	fBits  int
	dEff   int
	slotOf [][]int // slotOf[m][k] = paired slot index k' at neighbor Γ(m)_k
}

// New constructs the code with fresh public randomness drawn from rng.
func New(p Params, rng *rand.Rand) (*Code, error) {
	p.setDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	rs, err := ecc.New(p.M*p.ChunkBytes, p.ItemBytes)
	if err != nil {
		return nil, err
	}
	exp, err := expander.New(p.M, p.D, lambdaFrac*float64(p.D), rng, 100)
	if err != nil {
		return nil, err
	}
	hs := make([]hashing.KWise, p.M)
	for m := range hs {
		hs[m] = hashing.NewKWise(2, rng)
	}
	c := &Code{
		p:      p,
		rs:     rs,
		exp:    exp,
		hs:     hs,
		fold:   hashing.NewFingerprinter(rng),
		fpHash: hashing.NewKWise(2, rng),
		fBits:  log2(p.F),
		dEff:   exp.D(),
	}
	c.slotOf = pairSlots(exp)
	return c, nil
}

// pairSlots builds, for each ordered slot (m, k), the reverse slot index at
// the neighbor: the j-th occurrence of m' in Γ(m) pairs with the j-th
// occurrence of m in Γ(m').
func pairSlots(exp *expander.Expander) [][]int {
	m := exp.M()
	out := make([][]int, m)
	occ := make(map[[2]int]int) // (u,v) -> occurrences consumed
	for u := 0; u < m; u++ {
		out[u] = make([]int, len(exp.Neighbors(u)))
		for k := range out[u] {
			out[u][k] = -1
		}
	}
	for u := 0; u < m; u++ {
		for k, v := range exp.Neighbors(u) {
			if out[u][k] != -1 {
				continue
			}
			j := occ[[2]int{u, v}]
			occ[[2]int{u, v}]++
			// find the j-th unpaired occurrence of u in Γ(v)
			cnt := 0
			for k2, w := range exp.Neighbors(v) {
				if w != u {
					continue
				}
				if cnt == j {
					out[u][k] = k2
					out[v][k2] = k
					break
				}
				cnt++
			}
		}
	}
	return out
}

// Params returns the (defaulted) parameters.
func (c *Code) Params() Params { return c.p }

// M returns the number of coordinates.
func (c *Code) M() int { return c.p.M }

// ZBits returns the number of bits of each packed payload Z; the
// per-coordinate report domain of PrivateExpanderSketch is [B]x[Y]x[2^ZBits].
func (c *Code) ZBits() int { return 8*c.p.ChunkBytes + c.dEff*c.fBits }

// Expander exposes the coordinate expander (read-only use).
func (c *Code) Expander() *expander.Expander { return c.exp }

// Hash returns h_m(item) in [0, Y).
func (c *Code) Hash(m int, item []byte) int {
	return c.hs[m].Range(c.fold.Fold(item), c.p.Y)
}

// fingerprint compresses the hash value y into [F], keyed by the edge slot
// (m, k). Keying by slot is essential: a fingerprint that depends on y alone
// makes two colliding items agree at a whole *coordinate*, so every expander
// edge touching that coordinate cross-links their copies at once and the
// decoder meets a tie on each of them. With per-slot keying, spurious edges
// are independent events of probability 1/F² each.
// When F = Y the fingerprint is the identity and the construction is exactly
// the paper's (DESIGN.md S4).
func (c *Code) fingerprint(m, k, y int) uint64 {
	if c.p.F == c.p.Y {
		return uint64(y)
	}
	key := uint64(m*c.dEff+k)<<32 | uint64(y)
	return c.fpHash.Eval(key) & uint64(c.p.F-1)
}

// Encode returns the M symbols of Enc(item). item must have length
// ItemBytes.
func (c *Code) Encode(item []byte) ([]Symbol, error) {
	if len(item) != c.p.ItemBytes {
		return nil, fmt.Errorf("listrec: item length %d, want %d", len(item), c.p.ItemBytes)
	}
	cw, err := c.rs.Encode(item)
	if err != nil {
		return nil, err
	}
	key := c.fold.Fold(item)
	ys := make([]int, c.p.M)
	for m := 0; m < c.p.M; m++ {
		ys[m] = c.hs[m].Range(key, c.p.Y)
	}
	out := make([]Symbol, c.p.M)
	for m := 0; m < c.p.M; m++ {
		var z uint64
		// fingerprints, highest slot first so unpacking is positional
		for k := c.dEff - 1; k >= 0; k-- {
			z = z<<uint(c.fBits) | c.fingerprint(m, k, ys[c.exp.Neighbor(m, k)])
		}
		for b := c.p.ChunkBytes - 1; b >= 0; b-- {
			z = z<<8 | uint64(cw[m*c.p.ChunkBytes+b])
		}
		out[m] = Symbol{Y: ys[m], Z: z}
	}
	return out, nil
}

// unpack splits a payload into chunk bytes and fingerprint slots.
func (c *Code) unpack(z uint64) (chunk []byte, fps []uint64) {
	chunk = make([]byte, c.p.ChunkBytes)
	for b := 0; b < c.p.ChunkBytes; b++ {
		chunk[b] = byte(z & 0xff)
		z >>= 8
	}
	fps = make([]uint64, c.dEff)
	mask := uint64(c.p.F - 1)
	for k := 0; k < c.dEff; k++ {
		fps[k] = z & mask
		z >>= uint(c.fBits)
	}
	return chunk, fps
}

// PackZ packs a chunk and fingerprint values into a payload; exported for
// tests that fabricate adversarial symbols.
func (c *Code) PackZ(chunk []byte, fps []uint64) uint64 {
	var z uint64
	for k := c.dEff - 1; k >= 0; k-- {
		z = z<<uint(c.fBits) | (fps[k] & uint64(c.p.F-1))
	}
	for b := c.p.ChunkBytes - 1; b >= 0; b-- {
		z = z<<8 | uint64(chunk[b])
	}
	return z
}
