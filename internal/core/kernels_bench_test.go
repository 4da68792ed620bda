package core

// Benchmarks for the steps 2-3 admission scan — the per-coordinate argmax
// kernel Identify spends its scan phase in — and for the root's side of a
// fan-in step, MergeSnapshot. The protocol is built and absorbed once
// outside the timer; the scan loop replays the full M-coordinate scan
// against the frozen per-coordinate oracles, which is exactly the work
// par.Range distributes inside Identify.

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"ldphh/internal/listrec"
)

// benchProtocol returns a protocol that has absorbed 30000 reports of 512
// distinct items.
func benchProtocol(tb testing.TB) *Protocol {
	tb.Helper()
	pr, err := New(Params{Eps: 4, N: 30000, ItemBytes: 4, Y: 64, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	var item [4]byte
	for i := 0; i < 30000; i++ {
		binary.BigEndian.PutUint32(item[:], uint32(i%512))
		rep, err := pr.Report(item[:], i, rng)
		if err != nil {
			tb.Fatal(err)
		}
		if err := pr.Absorb(rep); err != nil {
			tb.Fatal(err)
		}
	}
	return pr
}

func benchScanProtocol(b *testing.B) *Protocol {
	pr := benchProtocol(b)
	for m := range pr.direct {
		pr.direct[m].Finalize()
	}
	return pr
}

func BenchmarkPESArgmaxScan(b *testing.B) {
	pr := benchScanProtocol(b)
	lists := make([][][]listrec.Symbol, pr.p.B)
	for bb := range lists {
		lists[bb] = make([][]listrec.Symbol, pr.p.M)
	}
	cells := pr.p.CellsPerCoordinate(pr.zbits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for m := 0; m < pr.p.M; m++ {
			pr.scanLists(m, pr.direct[m].HistogramView(), lists)
		}
	}
	b.ReportMetric(float64(pr.p.M*cells), "cells/op")
}

// pesTableCells returns the cells of the M+1 tables a PES snapshot
// carries: each coordinate's DirectHistogram and the confirmation
// Hashtogram.
func pesTableCells(pr *Protocol) int {
	conf := pr.conf.Params()
	cells := conf.Rows * conf.T
	for _, d := range pr.direct {
		cells += d.T()
	}
	return cells
}

// BenchmarkPESMergeSnapshot validates one leaf snapshot and commits it
// into a root's counters per op, both over the root's Params.Workers pool;
// cells/op counts the M+1 tables' cells the merge covers, which the
// snapshot's size no longer tracks.
func BenchmarkPESMergeSnapshot(b *testing.B) {
	leaf := benchProtocol(b)
	snap, err := leaf.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	root, err := New(leaf.Params())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := root.MergeSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pesTableCells(leaf)), "cells/op")
	b.ReportMetric(float64(len(snap)), "snapshot-bytes")
}

// BenchmarkPESSnapshot is the leaf's side of the same fan-in step: one
// Snapshot of the benchProtocol state per op, sized and written over
// Params.Workers.
func BenchmarkPESSnapshot(b *testing.B) {
	leaf := benchProtocol(b)
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := leaf.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		n = len(snap)
	}
	b.ReportMetric(float64(pesTableCells(leaf)), "cells/op")
	b.ReportMetric(float64(n), "snapshot-bytes")
}
