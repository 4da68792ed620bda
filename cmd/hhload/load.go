package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ldphh"
	"ldphh/internal/dist"
	"ldphh/internal/freqoracle"
)

// loadConfig parameterizes one open-loop ingest run; it mirrors the
// command-line flags so the smoke test can drive a run without a
// subprocess.
type loadConfig struct {
	Protocol  string
	Devices   int     // total simulated devices; one report each
	Conns     int     // concurrent sender connections, one IngestConn each
	Batch     int     // reports per mega-batch send
	Rate      float64 // target arrival rate in reports/sec; 0 opens the throttle
	Eps       float64
	ItemBytes int
	ZipfS     float64
	Support   int
	Seed      uint64
	Y         int
}

// loadResult is one measured run, JSON-shaped for the BENCH_ingest.json
// artifact. AllocsPerReport counts whole-process mallocs across the timed
// ingest window (client and server share the process), divided by devices
// — an upper bound on the server decode path's allocation rate.
type loadResult struct {
	Protocol        string  `json:"protocol"`
	Devices         int     `json:"devices"`
	Conns           int     `json:"conns"`
	Batch           int     `json:"batch"`
	RateTarget      float64 `json:"rate_target"`
	ElapsedMS       int64   `json:"elapsed_ms"`
	ReportsPerSec   float64 `json:"reports_per_sec"`
	P50IngestMS     float64 `json:"p50_ingest_ms"`
	P99IngestMS     float64 `json:"p99_ingest_ms"`
	AllocsPerReport float64 `json:"allocs_per_report"`
	BytesPerReport  int     `json:"bytes_per_report"`
	Absorbed        int     `json:"absorbed"`
}

// newLoadProtocol builds one protocol instance for the run's config. The
// device workers and the server aggregator all call it with identical
// arguments — the deployment contract that shares the public randomness.
func newLoadProtocol(cfg loadConfig, kind ldphh.Kind) (ldphh.Protocol, error) {
	opts := []ldphh.Option{
		ldphh.WithEps(cfg.Eps), ldphh.WithN(cfg.Devices),
		ldphh.WithItemBytes(cfg.ItemBytes), ldphh.WithSeed(cfg.Seed),
	}
	if cfg.Y > 0 {
		opts = append(opts, ldphh.WithY(cfg.Y))
	}
	switch kind {
	case ldphh.KindSmallDomain, ldphh.KindDirectHistogram, ldphh.KindBassilySmith:
		opts = append(opts, ldphh.WithDomainSize(cfg.Support+1))
	case ldphh.KindStreamHG:
		// The continuous-query kind spends ε/w per window; the ingest path
		// under load is otherwise identical to the batch kinds.
		opts = append(opts, ldphh.WithDomainSize(cfg.Support+1))
	case ldphh.KindHashtogram:
		// The oracle answers a known dictionary; query the zipf head.
		k := min(cfg.Support, 32)
		candidates := make([][]byte, k)
		for i := range candidates {
			candidates[i] = freqoracle.OrdinalBytes(uint64(i+1), cfg.ItemBytes)
		}
		opts = append(opts, ldphh.WithCandidates(candidates))
	}
	return ldphh.New(kind, opts...)
}

// senderLane is one connection's worth of pre-generated traffic: the
// devices' reports as a contiguous frame slab. Generation happens before
// the clock starts — hhload measures ingest, not report synthesis.
type senderLane struct {
	slab     []byte
	frameLen int
}

// generateLanes synthesizes every device's report in parallel, one lane
// per connection. Device i draws its item from the shared zipf and
// randomizes with its own rng substream, so the population is
// deterministic in the seed but independent across devices.
func generateLanes(cfg loadConfig, kind ldphh.Kind) ([]*senderLane, error) {
	lanes := make([]*senderLane, cfg.Conns)
	errs := make([]error, cfg.Conns)
	var wg sync.WaitGroup
	per := cfg.Devices / cfg.Conns
	for w := 0; w < cfg.Conns; w++ {
		lo := w * per
		hi := lo + per
		if w == cfg.Conns-1 {
			hi = cfg.Devices
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			device, err := newLoadProtocol(cfg, kind)
			if err != nil {
				errs[w] = err
				return
			}
			zipf := dist.NewZipf(cfg.Support, cfg.ZipfS)
			rng := dist.SubStream(cfg.Seed, uint64(1000+w))
			lane := &senderLane{}
			for i := lo; i < hi; i++ {
				item := freqoracle.OrdinalBytes(uint64(1+zipf.Sample(rng)), cfg.ItemBytes)
				wr, err := device.Report(item, i, rng)
				if err != nil {
					errs[w] = err
					return
				}
				if lane.slab == nil {
					lane.frameLen = len(wr)
					lane.slab = make([]byte, 0, (hi-lo)*lane.frameLen)
				}
				lane.slab = append(lane.slab, wr...)
			}
			lanes[w] = lane
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return lanes, nil
}

// runLoad executes one open-loop ingest run against an in-process server
// on loopback TCP. With Rate > 0, send slots are scheduled on the global
// arrival clock regardless of completion — open loop — so the reported
// latency includes queueing delay once the server falls behind; with
// Rate = 0 the throttle is open and latency is pure send-to-ack time.
func runLoad(cfg loadConfig) (*loadResult, error) {
	kind, err := ldphh.ParseKind(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	if cfg.Conns <= 0 || cfg.Batch <= 0 || cfg.Devices <= 0 {
		return nil, fmt.Errorf("hhload: devices, conns and batch must be positive")
	}

	agg, err := newLoadProtocol(cfg, kind)
	if err != nil {
		return nil, err
	}
	srv, err := ldphh.NewAggregationServer(agg, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	lanes, err := generateLanes(cfg, kind)
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(cfg.Batch) / cfg.Rate * float64(time.Second))
	}

	var slot atomic.Int64
	lats := make([][]float64, cfg.Conns)
	errs := make([]error, cfg.Conns)
	var wg sync.WaitGroup

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()

	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		go func(w int, lane *senderLane) {
			defer wg.Done()
			conn, err := ldphh.DialIngest(ctx, srv.Addr(), kind)
			if err != nil {
				errs[w] = err
				return
			}
			defer conn.Close()
			chunkBytes := cfg.Batch * lane.frameLen
			chunks := (len(lane.slab) + chunkBytes - 1) / chunkBytes
			for c := 0; c < chunks; c++ {
				sent := time.Now()
				if interval > 0 {
					sched := start.Add(time.Duration(slot.Add(1)-1) * interval)
					if d := time.Until(sched); d > 0 {
						time.Sleep(d)
					}
					sent = sched // open loop: latency from the arrival slot
				}
				hi := min((c+1)*chunkBytes, len(lane.slab))
				if errs[w] = conn.SendEncoded(ctx, lane.slab[c*chunkBytes:hi]); errs[w] != nil {
					return
				}
				lats[w] = append(lats[w], float64(time.Since(sent))/float64(time.Millisecond))
			}
		}(w, lanes[w])
	}
	wg.Wait()
	elapsed := time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if got := srv.Absorbed(); got != cfg.Devices {
		return nil, fmt.Errorf("hhload: server absorbed %d of %d reports", got, cfg.Devices)
	}

	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	return &loadResult{
		Protocol: cfg.Protocol, Devices: cfg.Devices, Conns: cfg.Conns, Batch: cfg.Batch,
		RateTarget:      cfg.Rate,
		ElapsedMS:       elapsed.Milliseconds(),
		ReportsPerSec:   float64(cfg.Devices) / elapsed.Seconds(),
		P50IngestMS:     dist.Quantile(all, 0.5),
		P99IngestMS:     dist.Quantile(all, 0.99),
		AllocsPerReport: float64(m1.Mallocs-m0.Mallocs) / float64(cfg.Devices),
		BytesPerReport:  agg.BytesPerReport(),
		Absorbed:        cfg.Devices,
	}, nil
}

// writeResults emits the run list as one indented JSON array (the
// BENCH_ingest.json artifact shape).
func writeResults(w io.Writer, res []*loadResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// writeTextResult emits one human-readable summary line.
func writeTextResult(w io.Writer, r *loadResult) {
	fmt.Fprintf(w, "%-12s %d devices / %d conns / batch %d: %8.0f reports/s  p50 %.2fms  p99 %.2fms  %.3f allocs/report\n",
		r.Protocol, r.Devices, r.Conns, r.Batch,
		r.ReportsPerSec, r.P50IngestMS, r.P99IngestMS, r.AllocsPerReport)
}
