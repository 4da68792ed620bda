// Package hadamard provides the Walsh-Hadamard machinery behind the one-bit
// local randomizer of the Hashtogram frequency oracle: single entries of the
// (±1) Hadamard matrix in O(1), and the fast transform of a row of integer
// report tallies in O(T log T), which is what lets the server reconstruct a
// length-T histogram from one-bit user reports in time independent of the
// domain size.
//
// TransformCounts is one cache-blocked kernel. A first radix-8 pass
// converts each int64 tally to float64 as it reads it; the remaining
// levels below block cells run as radix-8/4 passes while the block is
// resident in L1; the levels above it run as strided radix-8/4 passes over
// the whole row, each a few long sequential streams; and the scale is
// folded into whichever pass runs last. A row of 2^22 cells thus takes five
// passes over memory where converting, a radix-2 loop and scaling take 24.
// The passes only regroup the radix-2 loop's butterflies: each output of
// the network is the same add or subtract of the same two operands, the
// passes before the last multiply by 1, which is exact, and the last
// multiplies the final sum by the scale once. So the output is
// bit-identical to converting, running the radix-2 loop and scaling, on
// any row.
package hadamard

import "math/bits"

// Entry returns H[row, col] of the 2^k x 2^k Hadamard matrix (entries ±1):
// (-1)^{<row, col>} where <.,.> is the GF(2) inner product of the index bits.
func Entry(row, col uint64) int {
	if bits.OnesCount64(row&col)&1 == 0 {
		return 1
	}
	return -1
}

// block is the cells of one L1-resident block: 4096 float64 cells are
// 32 KiB, inside a 48 KiB L1d with room for the tallies being read.
const block = 1 << 12

// TransformCounts writes scale · H · counts into dst, where H is the
// (unnormalized, ±1) Walsh-Hadamard matrix of order len(counts), which
// must be a positive power of two equal to len(dst).
func TransformCounts(dst []float64, counts []int64, scale float64) {
	n := len(counts)
	if n == 0 || n&(n-1) != 0 || len(dst) != n {
		panic("hadamard: lengths must be one positive power of two")
	}
	if n < 8 {
		for i, c := range counts {
			dst[i] = float64(c)
		}
		levels(dst, 1, scale)
		return
	}
	b := min(n, block)
	s := 1.0 // the scale of the in-block passes: scale if they are the last
	if b == n {
		s = scale
	}
	for lo := 0; lo < n; lo += b {
		convert8(dst[lo:lo+b], counts[lo:lo+b])
		levels(dst[lo:lo+b], 8, s)
	}
	if b < n {
		levels(dst, b, scale)
	}
}

// levels runs the butterfly levels of strides h, 2h, ..., len(v)/2 over
// v: radix-8 passes while three levels or more are left, except that four
// are left as two radix-4 passes, and radix-2 only when one level is all
// there is. The last pass multiplies its outputs by s; with no level to
// run, one pass only scales.
func levels(v []float64, h int, s float64) {
	if h >= len(v) {
		for i := range v {
			v[i] *= s
		}
		return
	}
	for h < len(v) {
		left := bits.TrailingZeros(uint(len(v) / h))
		switch {
		case left >= 3 && left != 4:
			radix8(v, h, lastScale(left == 3, s))
			h *= 8
		case left >= 2:
			radix4(v, h, lastScale(left == 2, s))
			h *= 4
		default:
			radix2(v, h, s)
			h *= 2
		}
	}
}

// lastScale is s for the last pass and 1, which is exact, for the others.
func lastScale(last bool, s float64) float64 {
	if last {
		return s
	}
	return 1
}

// convert8 is the first pass: it reads tallies from src, converts them and
// writes the three levels of strides 1, 2 and 4 to dst.
func convert8(dst []float64, src []int64) {
	src = src[:len(dst)]
	for i := 0; i+8 <= len(dst); i += 8 {
		x := src[i : i+8 : i+8]
		b0, b1 := float64(x[0])+float64(x[1]), float64(x[0])-float64(x[1])
		b2, b3 := float64(x[2])+float64(x[3]), float64(x[2])-float64(x[3])
		b4, b5 := float64(x[4])+float64(x[5]), float64(x[4])-float64(x[5])
		b6, b7 := float64(x[6])+float64(x[7]), float64(x[6])-float64(x[7])
		c0, c2 := b0+b2, b0-b2
		c1, c3 := b1+b3, b1-b3
		c4, c6 := b4+b6, b4-b6
		c5, c7 := b5+b7, b5-b7
		d := dst[i : i+8 : i+8]
		d[0], d[4] = c0+c4, c0-c4
		d[1], d[5] = c1+c5, c1-c5
		d[2], d[6] = c2+c6, c2-c6
		d[3], d[7] = c3+c7, c3-c7
	}
}

// radix8 runs the three levels of strides h, 2h and 4h over v in place,
// scaled by s: each group of 8h cells is eight streams of h cells.
func radix8(v []float64, h int, s float64) {
	for i := 0; i+8*h <= len(v); i += 8 * h {
		p0 := v[i : i+h]
		p1 := v[i+h : i+2*h][:len(p0)]
		p2 := v[i+2*h : i+3*h][:len(p0)]
		p3 := v[i+3*h : i+4*h][:len(p0)]
		p4 := v[i+4*h : i+5*h][:len(p0)]
		p5 := v[i+5*h : i+6*h][:len(p0)]
		p6 := v[i+6*h : i+7*h][:len(p0)]
		p7 := v[i+7*h : i+8*h][:len(p0)]
		for j := range p0 {
			b0, b1 := p0[j]+p1[j], p0[j]-p1[j]
			b2, b3 := p2[j]+p3[j], p2[j]-p3[j]
			b4, b5 := p4[j]+p5[j], p4[j]-p5[j]
			b6, b7 := p6[j]+p7[j], p6[j]-p7[j]
			c0, c2 := b0+b2, b0-b2
			c1, c3 := b1+b3, b1-b3
			c4, c6 := b4+b6, b4-b6
			c5, c7 := b5+b7, b5-b7
			p0[j], p4[j] = (c0+c4)*s, (c0-c4)*s
			p1[j], p5[j] = (c1+c5)*s, (c1-c5)*s
			p2[j], p6[j] = (c2+c6)*s, (c2-c6)*s
			p3[j], p7[j] = (c3+c7)*s, (c3-c7)*s
		}
	}
}

// radix4 runs the two levels of strides h and 2h over v in place, scaled
// by s.
func radix4(v []float64, h int, s float64) {
	for i := 0; i+4*h <= len(v); i += 4 * h {
		p0 := v[i : i+h]
		p1 := v[i+h : i+2*h][:len(p0)]
		p2 := v[i+2*h : i+3*h][:len(p0)]
		p3 := v[i+3*h : i+4*h][:len(p0)]
		for j := range p0 {
			b0, b1 := p0[j]+p1[j], p0[j]-p1[j]
			b2, b3 := p2[j]+p3[j], p2[j]-p3[j]
			p0[j], p2[j] = (b0+b2)*s, (b0-b2)*s
			p1[j], p3[j] = (b1+b3)*s, (b1-b3)*s
		}
	}
}

// radix2 runs the one level of stride h over v in place, scaled by s.
func radix2(v []float64, h int, s float64) {
	for i := 0; i+2*h <= len(v); i += 2 * h {
		p0 := v[i : i+h]
		p1 := v[i+h : i+2*h][:len(p0)]
		for j := range p0 {
			p0[j], p1[j] = (p0[j]+p1[j])*s, (p0[j]-p1[j])*s
		}
	}
}

// NextPow2 returns the smallest power of two >= n (n >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
