package ecc

// Benchmarks for the Reed-Solomon decode kernels: the full
// errors-and-erasures Decode and the Chien root search it calls per
// candidate locator. The list-recovery peeling loop invokes Decode once per
// seeded growth attempt, so both sit on the Identify step-4 hot path.

import (
	"math/rand/v2"
	"testing"

	"ldphh/internal/gf256"
)

func benchCorrupted(b *testing.B, n, k, errs int) (*Code, []byte) {
	b.Helper()
	c, err := New(n, k)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 10))
	msg := make([]byte, k)
	for i := range msg {
		msg[i] = byte(rng.IntN(256))
	}
	cw, err := c.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	for _, pos := range rng.Perm(n)[:errs] {
		cw[pos] ^= byte(1 + rng.IntN(255))
	}
	return c, cw
}

func benchDecode(b *testing.B, n, k, errs int) {
	c, cw := benchCorrupted(b, n, k, errs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(cw, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSmall(b *testing.B) { benchDecode(b, 30, 10, 10) }
func BenchmarkDecodeLarge(b *testing.B) { benchDecode(b, 255, 223, 16) }
func BenchmarkDecodeClean(b *testing.B) { benchDecode(b, 30, 10, 0) }
func BenchmarkDecodeErasures(b *testing.B) {
	c, cw := benchCorrupted(b, 30, 10, 0)
	rng := rand.New(rand.NewPCG(11, 12))
	erasures := rng.Perm(30)[:12]
	for _, pos := range erasures {
		cw[pos] ^= byte(1 + rng.IntN(255))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(cw, erasures); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLocator(b *testing.B, n, roots int) []byte {
	b.Helper()
	rng := rand.New(rand.NewPCG(13, 14))
	lambda := []byte{1}
	for _, pos := range rng.Perm(n)[:roots] {
		lambda = gf256.PolyMul(lambda, []byte{1, gf256.Exp(pos)})
	}
	return lambda
}

func benchChien(b *testing.B, n, roots int) {
	lambda := benchLocator(b, n, roots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := chienSearch(lambda, n); len(got) != roots {
			b.Fatalf("found %d roots, want %d", len(got), roots)
		}
	}
}

func BenchmarkChienSearchSmall(b *testing.B) { benchChien(b, 30, 10) }
func BenchmarkChienSearchLarge(b *testing.B) { benchChien(b, 255, 16) }
