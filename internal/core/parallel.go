package core

import (
	"ldphh/internal/par"
	"ldphh/internal/proto"
)

// parSortThreshold is the slice length below which sortEstimates always
// sorts serially: goroutine handoff costs more than the sort itself for
// the short candidate lists a typical round produces.
const parSortThreshold = 4096

// sortEstimates sorts est by proto.EstimateLess using up to workers
// goroutines: the slice is cut into one contiguous run per worker, the runs
// sort concurrently, and a serial k-way merge (k = workers, small) combines
// them. The comparator is a strict total order, so the output permutation
// is identical at every worker count.
func sortEstimates(est []Estimate, workers int) {
	if workers <= 1 || len(est) < parSortThreshold {
		proto.SortEstimates(est)
		return
	}
	if workers > len(est) {
		workers = len(est)
	}
	runs := make([][]Estimate, workers)
	chunk := (len(est) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(est) {
			break
		}
		hi := lo + chunk
		if hi > len(est) {
			hi = len(est)
		}
		runs[w] = est[lo:hi]
	}
	par.Range(workers, workers, func(w int) { proto.SortEstimates(runs[w]) })
	merged := make([]Estimate, 0, len(est))
	heads := make([]int, workers)
	for len(merged) < len(est) {
		best := -1
		for w, run := range runs {
			if heads[w] >= len(run) {
				continue
			}
			if best == -1 || proto.EstimateLess(run[heads[w]], runs[best][heads[best]]) {
				best = w
			}
		}
		merged = append(merged, runs[best][heads[best]])
		heads[best]++
	}
	copy(est, merged)
}
