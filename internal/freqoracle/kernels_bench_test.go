package freqoracle

// Kernel benchmarks for the profiled Identify/ingest hot paths: Absorb
// (per-report tallying), Finalize (per-row FWHT reconstruction) and
// Estimate (the per-candidate confirmation query Identify fans out over).
// BENCH_kernels.json records their before/after trajectory across the
// int64 structure-of-arrays conversion.

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"ldphh/internal/blobv1"
)

const (
	benchKernelN       = 30000
	benchKernelKeys    = 512
	benchDirectDomain  = 1 << 14
	benchDirectReports = 30000
)

func benchKernelParams() HashtogramParams {
	return HashtogramParams{Eps: 4, N: benchKernelN, Seed: 7}
}

func benchKernelItem(i int) []byte {
	var item [4]byte
	binary.BigEndian.PutUint32(item[:], uint32(i%benchKernelKeys))
	return item[:]
}

// benchHashtogram returns a sketch plus the deterministic report stream of
// one full round against it.
func benchHashtogram(b *testing.B) (*Hashtogram, []HashtogramReport) {
	b.Helper()
	h, err := NewHashtogram(benchKernelParams())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	reports := make([]HashtogramReport, benchKernelN)
	for i := range reports {
		reports[i] = h.Report(benchKernelItem(i), i, rng)
	}
	return h, reports
}

func BenchmarkHashtogramAbsorb(b *testing.B) {
	h, reports := benchHashtogram(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Absorb(reports[i%len(reports)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashtogramMerge(b *testing.B) {
	h, reports := benchHashtogram(b)
	shard := h.NewAccumulator()
	for _, rep := range reports {
		if err := shard.Absorb(rep); err != nil {
			b.Fatal(err)
		}
	}
	into := h.NewAccumulator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := into.Merge(shard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashtogramFinalize(b *testing.B) {
	h, reports := benchHashtogram(b)
	for _, rep := range reports {
		if err := h.Absorb(rep); err != nil {
			b.Fatal(err)
		}
	}
	snap, err := h.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := NewHashtogram(benchKernelParams())
		if err != nil {
			b.Fatal(err)
		}
		if err := fresh.Restore(snap); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		fresh.FinalizeWorkers(1)
	}
}

// benchFinalizedHashtogram returns a finalized sketch ready for Estimate
// queries, plus the query key set.
func benchFinalizedHashtogram(b *testing.B) (*Hashtogram, [][]byte) {
	b.Helper()
	h, reports := benchHashtogram(b)
	for _, rep := range reports {
		if err := h.Absorb(rep); err != nil {
			b.Fatal(err)
		}
	}
	h.Finalize()
	keys := make([][]byte, benchKernelKeys)
	for i := range keys {
		keys[i] = benchKernelItem(i)
	}
	return h, keys
}

func BenchmarkHashtogramEstimate(b *testing.B) {
	h, keys := benchFinalizedHashtogram(b)
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += h.Estimate(keys[i%len(keys)])
	}
	benchSink = sink
}

func BenchmarkHashtogramEstimateWithSpread(b *testing.B) {
	h, keys := benchFinalizedHashtogram(b)
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, iqr := h.EstimateWithSpread(keys[i%len(keys)])
		sink += est + iqr
	}
	benchSink = sink
}

// benchSink defeats dead-code elimination of the measured query loops.
var benchSink float64

func benchDirect(b *testing.B) (*DirectHistogram, []DirectReport) {
	b.Helper()
	d, err := NewDirectHistogram(2, benchDirectDomain)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	reports := make([]DirectReport, benchDirectReports)
	for i := range reports {
		rep, err := d.Report(uint64(i%benchDirectDomain), rng)
		if err != nil {
			b.Fatal(err)
		}
		reports[i] = rep
	}
	return d, reports
}

func BenchmarkDirectAbsorb(b *testing.B) {
	d, reports := benchDirect(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Absorb(reports[i%len(reports)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDirectFinalize(b *testing.B) {
	d, reports := benchDirect(b)
	for _, rep := range reports {
		if err := d.Absorb(rep); err != nil {
			b.Fatal(err)
		}
	}
	snap, err := d.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := NewDirectHistogram(2, benchDirectDomain)
		if err != nil {
			b.Fatal(err)
		}
		if err := fresh.Restore(snap); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		fresh.Finalize()
	}
}

// BenchmarkHashtogramRestoreDense restores one table of the
// hashtogram_durable shape (46 rows × 4096 cells over 8×10^6 reports,
// nearly every cell nonzero) per op, from its version 2 blob and from the
// version 1 rewrite of it: the checkpoint recovery path.
func BenchmarkHashtogramRestoreDense(b *testing.B) {
	const reports = 8_000_000
	p := HashtogramParams{Eps: 4, N: reports, Seed: 11}
	h, err := NewHashtogram(p)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(8, 9))
	for i := 0; i < reports; i++ {
		rep := HashtogramReport{Row: rng.IntN(h.p.Rows), Col: uint32(rng.IntN(h.p.T)), Bit: int8(2*rng.IntN(2) - 1)}
		if err := h.Absorb(rep); err != nil {
			b.Fatal(err)
		}
	}
	v2, err := h.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		blob []byte
	}{{"v2", v2}, {"v1", blobv1.Blob(v2)}} {
		b.Run(c.name, func(b *testing.B) {
			into, err := NewHashtogram(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := into.Restore(c.blob); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(h.cells)), "cells/op")
			b.ReportMetric(float64(len(c.blob)), "blob-bytes")
		})
	}
}
