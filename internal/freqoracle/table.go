package freqoracle

import (
	"fmt"

	"ldphh/internal/hadamard"
	"ldphh/internal/par"
)

// table is the server state both oracles share: rows × t cells of ±1
// Hadamard-response tallies and a report count per row, with the blob
// shape fixed at construction. A Hashtogram is an R-row table; a
// DirectHistogram is a one-row table whose row count is its report count.
//
// The cells are one flat int64 slab indexed [row*t + col]: reports are ±1
// tallies, so the running sums are exact integers, and keeping them in a
// single structure-of-arrays slab makes a fold one cache-line touch and a
// merge one linear vector add. Magnitudes are bounded by the report count
// (far below 2^53), so the float64 conversion in transform is exact and
// the reconstruction is bit-identical to the historical float64
// accumulator. The snapshot codec is in snapshot.go.
type table struct {
	blobShape
	cells     []int64 // [row*t + col] running sums of ±1 reports
	rowCounts []int
	total     int // running sum of rowCounts, kept in lockstep
}

// newTable returns an empty table of shape s.
func newTable(s blobShape) table {
	return table{blobShape: s, cells: make([]int64, s.rows*s.t), rowCounts: make([]int, s.rows)}
}

// absorb folds one report into the table, checking its row, column and
// bit. Not safe for concurrent use: every aggregator that owns an oracle
// serializes it under its adapter lock.
func (tb *table) absorb(row int, col uint32, bit int8) error {
	if row < 0 || row >= tb.rows {
		return fmt.Errorf("freqoracle: report row %d out of range", row)
	}
	if int(col) >= tb.t {
		return fmt.Errorf("freqoracle: report column %d out of range", col)
	}
	if bit != 1 && bit != -1 {
		return fmt.Errorf("freqoracle: report bit %d invalid", bit)
	}
	tb.cells[row*tb.t+int(col)] += int64(bit)
	tb.rowCounts[row]++
	tb.total++
	return nil
}

// merge adds the counters of a table of the same shape into this one's.
func (tb *table) merge(o *table) {
	for j, v := range o.cells {
		tb.cells[j] += v
	}
	for r, c := range o.rowCounts {
		tb.rowCounts[r] += c
	}
	tb.total += o.total
}

// TotalReports returns the number of absorbed reports. The count is
// maintained incrementally alongside rowCounts, so the call is O(1).
func (tb *table) TotalReports() int { return tb.total }

// Reset zeroes the counters in place.
func (tb *table) Reset() {
	clear(tb.cells)
	clear(tb.rowCounts)
	tb.total = 0
}

// transform reconstructs every row from the counters as they stand into
// one fresh rows × t slab: a row's tallies convert exactly to float64,
// go through one fast Walsh-Hadamard transform and are scaled by ceps.
// Rows are independent, so they run on at most workers goroutines
// (workers <= 1 runs serially with no goroutine at all) and the slab is
// bit-identical at every bound. One slab for all rows keeps the view
// cache-contiguous and finalization from fragmenting the heap.
func (tb *table) transform(ceps float64, workers int) []float64 {
	slab := make([]float64, len(tb.cells))
	par.Range(tb.rows, workers, func(r int) {
		v := slab[r*tb.t : (r+1)*tb.t : (r+1)*tb.t]
		for j, a := range tb.cells[r*tb.t : (r+1)*tb.t] {
			v[j] = float64(a)
		}
		hadamard.Transform(v)
		for j := range v {
			v[j] *= ceps
		}
	})
	return slab
}
