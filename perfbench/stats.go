package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler records the peak Go heap in use (live and not yet swept
// objects plus free space in in-use spans, as MemStats.HeapInuse) by
// sampling runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	peak uint64
}

// heapTick is the heap sampling interval.
const heapTick = 2 * time.Millisecond

var heapMetrics = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

func readHeapInUse(samples []metrics.Sample) uint64 {
	metrics.Read(samples)
	var total uint64
	for _, s := range samples {
		if s.Value.Kind() == metrics.KindUint64 {
			total += s.Value.Uint64()
		}
	}
	return total
}

func newSamples() []metrics.Sample {
	samples := make([]metrics.Sample, len(heapMetrics))
	for i, name := range heapMetrics {
		samples[i].Name = name
	}
	return samples
}

// startHeapSampler samples every interval until stopped.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := newSamples()
	h.peak = readHeapInUse(samples)
	go func() {
		defer close(h.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.note(readHeapInUse(samples))
			}
		}
	}()
	return h
}

func (h *heapSampler) note(v uint64) {
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// sample takes one reading now (phase boundaries, where peaks sit).
func (h *heapSampler) sample() { h.note(readHeapInUse(newSamples())) }

// finish stops the sampler, waits for its goroutine and returns the peak
// in MB (10^6 bytes).
func (h *heapSampler) finish() float64 {
	h.sample()
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / 1e6
}

// runtimeCounters is the slice of MemStats the per-layer runtime metrics
// difference across a phase.
type runtimeCounters struct {
	mallocs  uint64
	numGC    uint32
	pauseTot uint64
}

func readRuntime() runtimeCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCounters{mallocs: m.Mallocs, numGC: m.NumGC, pauseTot: m.PauseTotalNs}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{mallocs: a.mallocs - b.mallocs, numGC: a.numGC - b.numGC, pauseTot: a.pauseTot - b.pauseTot}
}
