package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ldphh"
)

// itemBytes is the item width of every workload (the facade default).
const itemBytes = 4

func itemOf(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }

// chunkDevices is the unit of parallel population building: chunk c draws
// its devices' items and randomizes their reports from its own seeded
// streams, so the fleet is a pure function of the seed at any worker count.
const chunkDevices = 1 << 16

// zipf samples ranks in [0, len(cdf)) with P(r) proportional to (r+1)^-s
// by inverse-CDF search.
type zipf struct{ cdf []float64 }

func newZipf(support int, s float64) zipf {
	cdf := make([]float64, support)
	total := 0.0
	for r := range cdf {
		total += math.Pow(float64(r+1), -s)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return zipf{cdf: cdf}
}

func (z zipf) sample(rng *rand.Rand) int {
	u := rng.Float64()
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// population is one workload's device fleet built from the seed: every
// device's item, the exact ground truth, and every device's pre-encoded
// wire frame in one contiguous slab.
type population struct {
	items    []uint32
	truth    map[uint32]int
	slab     []byte
	frameLen int
	encodeNs int64 // summed worker time inside Report
}

func (p *population) devices() int { return len(p.items) }

// frame returns device i's wire report (a view into the slab).
func (p *population) frame(i int) ldphh.WireReport {
	return ldphh.WireReport(p.slab[i*p.frameLen : (i+1)*p.frameLen])
}

// buildPopulation draws n devices' items with draw and encodes every
// device's report with the device-side Reporter, spreading chunks over
// GOMAXPROCS workers.
func buildPopulation(dev ldphh.Protocol, n int, seed uint64, draw func(*rand.Rand) uint32) (*population, error) {
	p := &population{
		items:    make([]uint32, n),
		frameLen: 2 + dev.BytesPerReport(),
	}
	p.slab = make([]byte, n*p.frameLen)
	chunks := (n + chunkDevices - 1) / chunkDevices
	var next atomic.Int64
	var busy atomic.Int64
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1) - 1)
				if c >= chunks {
					return
				}
				lo, hi := c*chunkDevices, min((c+1)*chunkDevices, n)
				itemRng := rand.New(rand.NewPCG(seed, uint64(2*c)))
				for i := lo; i < hi; i++ {
					p.items[i] = draw(itemRng)
				}
				repRng := rand.New(rand.NewPCG(seed, uint64(2*c+1)))
				start := time.Now()
				for i := lo; i < hi; i++ {
					wr, err := dev.Report(itemOf(p.items[i]), i, repRng)
					if err != nil {
						errs[w] = fmt.Errorf("perfbench: device %d report: %w", i, err)
						return
					}
					if len(wr) != p.frameLen {
						errs[w] = fmt.Errorf("perfbench: device %d report is %d bytes, want %d", i, len(wr), p.frameLen)
						return
					}
					copy(p.slab[i*p.frameLen:], wr)
				}
				busy.Add(int64(time.Since(start)))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	p.encodeNs = busy.Load()
	p.truth = make(map[uint32]int)
	for _, it := range p.items {
		p.truth[it]++
	}
	return p, nil
}

// lane is one connection's share of the slab: a contiguous run of devices.
func (p *population) lane(i, lanes int) []byte {
	per := (p.devices() + lanes - 1) / lanes
	lo, hi := min(i*per, p.devices()), min((i+1)*per, p.devices())
	return p.slab[lo*p.frameLen : hi*p.frameLen]
}

// recall is the share of ground-truth items above floor that est contains
// with an estimate within floor of the true count.
func recall(truth map[uint32]int, est []ldphh.Estimate, floor float64) (float64, int) {
	got := make(map[uint32]float64, len(est))
	for _, e := range est {
		if len(e.Item) == itemBytes {
			got[binary.BigEndian.Uint32(e.Item)] = e.Count
		}
	}
	heavy, hit := 0, 0
	for it, c := range truth {
		if float64(c) <= floor {
			continue
		}
		heavy++
		if v, ok := got[it]; ok && math.Abs(v-float64(c)) <= floor {
			hit++
		}
	}
	if heavy == 0 {
		return 0, 0
	}
	return float64(hit) / float64(heavy), heavy
}
