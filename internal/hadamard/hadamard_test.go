package hadamard

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestEntryMatchesRecursiveDefinition(t *testing.T) {
	// H_{2n} = [[H_n, H_n], [H_n, -H_n]] starting from H_1 = [1].
	const k = 5
	n := 1 << k
	H := make([][]int, n)
	for i := range H {
		H[i] = make([]int, n)
	}
	H[0][0] = 1
	for size := 1; size < n; size <<= 1 {
		for i := 0; i < size; i++ {
			for j := 0; j < size; j++ {
				v := H[i][j]
				H[i][j+size] = v
				H[i+size][j] = v
				H[i+size][j+size] = -v
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if Entry(uint64(i), uint64(j)) != H[i][j] {
				t.Fatalf("Entry(%d,%d) = %d, want %d", i, j, Entry(uint64(i), uint64(j)), H[i][j])
			}
		}
	}
}

// radix2Reference is the butterfly loop the kernel replaced: in place,
// radix-2, one level per pass over v.
func radix2Reference(v []float64) {
	n := len(v)
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				x, y := v[j], v[j+h]
				v[j], v[j+h] = x+y, x-y
			}
		}
	}
}

// reference is the reconstruction the kernel replaced, into v: convert
// the tallies to float64, run the radix-2 loop, then scale every cell.
func reference(v []float64, counts []int64, scale float64) {
	for i, c := range counts {
		v[i] = float64(c)
	}
	radix2Reference(v)
	for i := range v {
		v[i] *= scale
	}
}

// sparseRow is a row of ±1 report tallies over about n/32 reports, as a
// large coordinate sees them.
func sparseRow(rng *rand.Rand, n int) []int64 {
	row := make([]int64, n)
	for r := 0; r < max(1, n/32); r++ {
		row[rng.IntN(n)] += int64(2*rng.IntN(2) - 1)
	}
	return row
}

// denseRow is a row whose every cell holds a tally of up to 10^6 reports.
func denseRow(rng *rand.Rand, n int) []int64 {
	row := make([]int64, n)
	for i := range row {
		row[i] = rng.Int64N(2_000_001) - 1_000_000
	}
	return row
}

// extremeRow is a row whose absolute cells sum to exactly 2^53, the
// largest report count a row can hold, with the signs of Hadamard row hr
// so that output cell hr is exactly 2^53 and every other output and
// partial sum mixes signs. Magnitudes vary pairwise around 2^53/n, so
// their low bits are not all zero.
func extremeRow(rng *rand.Rand, n int) []int64 {
	q := int64(1) << 53 / int64(n)
	hr := rng.Uint64N(uint64(n))
	row := make([]int64, n)
	for i := 0; i < n; i += 2 {
		d := int64(0)
		if n > 1 {
			d = rng.Int64N(q + 1)
			row[i+1] = q - d
		}
		row[i] = q + d
	}
	for i := range row {
		row[i] *= int64(Entry(hr, uint64(i)))
	}
	return row
}

// cEps is the Hadamard randomizer's debiasing factor at eps.
func cEps(eps float64) float64 {
	e := math.Exp(eps)
	return (e + 1) / (e - 1)
}

// TestTransformCountsExact pins the kernel bit for bit to the radix-2
// reference at every power of two up to 2^16 and at 2^22 (one coordinate
// of a 10^6-device PES round), on sparse, dense and extreme rows, at
// scale 1 and at the debiasing factors of eps 2 and 4.
func TestTransformCountsExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 1))
	var sizes []int
	for n := 1; n <= 1<<16; n <<= 1 {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 1<<22)
	rows := []struct {
		name string
		gen  func(*rand.Rand, int) []int64
	}{{"sparse", sparseRow}, {"dense", denseRow}, {"extreme", extremeRow}}
	scales := []float64{1, cEps(2), cEps(4)}
	for _, n := range sizes {
		dst, exact := make([]float64, n), make([]float64, n)
		for _, row := range rows {
			counts := row.gen(rng, n)
			reference(exact, counts, 1)
			for _, s := range scales {
				TransformCounts(dst, counts, s)
				for i, got := range dst {
					if want := exact[i] * s; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d %s row, scale %v: cell %d = %v (%#x), want %v (%#x)",
							n, row.name, s, i, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

func TestTransformMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		counts := make([]int64, n)
		for i := range counts {
			counts[i] = rng.Int64N(2001) - 1000
		}
		got := make([]float64, n)
		TransformCounts(got, counts, 1)
		for r := 0; r < n; r++ {
			var want int64
			for c := 0; c < n; c++ {
				want += int64(Entry(uint64(r), uint64(c))) * counts[c]
			}
			if got[r] != float64(want) {
				t.Fatalf("n=%d: FWHT[%d] = %v, want %d", n, r, got[r], want)
			}
		}
	}
}

// TestTransformInvolution checks H·H = n·I exactly: the first transform's
// output is an exact integer row, so it converts back to int64 and a
// second transform at scale 1 must give n times the input. 32-bit inputs
// keep every sum of both transforms far below 2^53.
func TestTransformInvolution(t *testing.T) {
	involution := func(x []int64) bool {
		n := len(x)
		once := make([]float64, n)
		TransformCounts(once, x, 1)
		back := make([]int64, n)
		for i, v := range once {
			back[i] = int64(v)
		}
		twice := make([]float64, n)
		TransformCounts(twice, back, 1)
		for i := range twice {
			if twice[i] != float64(int64(n)*x[i]) {
				return false
			}
		}
		return true
	}
	quick8 := func(raw [8]int32) bool {
		x := make([]int64, len(raw))
		for i, v := range raw {
			x[i] = int64(v)
		}
		return involution(x)
	}
	if err := quick.Check(quick8, nil); err != nil {
		t.Error(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	for n := 1; n <= 1<<14; n <<= 1 {
		x := make([]int64, n)
		for i := range x {
			x[i] = int64(int32(rng.Uint32()))
		}
		if !involution(x) {
			t.Fatalf("n=%d: transforming twice is not n times the input", n)
		}
	}
}

func TestTransformRejectsBadLength(t *testing.T) {
	for _, c := range []struct{ dst, counts int }{{0, 0}, {3, 3}, {6, 6}, {100, 100}, {8, 4}, {4, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TransformCounts(len(dst)=%d, len(counts)=%d) did not panic", c.dst, c.counts)
				}
			}()
			TransformCounts(make([]float64, c.dst), make([]int64, c.counts), 1)
		}()
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
	if NextPow2(0) != 1 || NextPow2(-5) != 1 {
		t.Error("NextPow2 of non-positive should be 1")
	}
}

func TestRowOrthogonality(t *testing.T) {
	const n = 64
	for r1 := uint64(0); r1 < n; r1++ {
		for r2 := uint64(0); r2 < n; r2++ {
			dot := 0
			for c := uint64(0); c < n; c++ {
				dot += Entry(r1, c) * Entry(r2, c)
			}
			want := 0
			if r1 == r2 {
				want = n
			}
			if dot != want {
				t.Fatalf("rows %d,%d dot = %d, want %d", r1, r2, dot, want)
			}
		}
	}
}

// BenchmarkTransform reconstructs one sparse row at the sizes of a
// pes_fanin coordinate (2^22 cells) and a hashtogram_durable row (2^12),
// by the kernel and by the reference it replaced, both at the eps-2
// debiasing factor.
func BenchmarkTransform(b *testing.B) {
	for _, n := range []int{1 << 22, 1 << 12} {
		counts := sparseRow(rand.New(rand.NewPCG(3, 3)), n)
		s := cEps(2)
		b.Run(fmt.Sprintf("n=%d/kernel", n), func(b *testing.B) {
			dst := make([]float64, n)
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				TransformCounts(dst, counts, s)
			}
		})
		b.Run(fmt.Sprintf("n=%d/reference", n), func(b *testing.B) {
			dst := make([]float64, n)
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				reference(dst, counts, s)
			}
		})
	}
}
