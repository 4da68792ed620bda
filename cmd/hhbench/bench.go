package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"ldphh"
	"ldphh/internal/workload"
)

// benchConfig parameterizes one measured heavy-hitters round; it mirrors
// the command-line flags so tests can drive the round without a subprocess.
type benchConfig struct {
	N         int
	Eps       float64
	ItemBytes int
	Protocol  string // any registered protocol name (ldphh.ParseKind)
	Transport string // inproc | tcp; "" = inproc
	Workload  string // planted | zipf | uniform
	ZipfS     float64
	Support   int
	Seed      uint64
	Y         int // per-coordinate hash range (pes)
	Workers   int // Identify worker-pool size (pes; 0 = GOMAXPROCS)
	Fleets    int // concurrent sender connections in tcp transport; 0 = 4
	Windows   int // streaming per-user budget split (streamhg; 0 = facade default)
	TopK      int // streaming answer size (streamhg; 0 = facade default)
}

// topRow is one of the leading output estimates with its ground truth.
type topRow struct {
	Item string  `json:"item"`
	Est  float64 `json:"estimate"`
	True int     `json:"true"`
}

// benchResult is the measured round, JSON-shaped for -json consumers.
type benchResult struct {
	Protocol      string   `json:"protocol"`
	Transport     string   `json:"transport"`
	N             int      `json:"n"`
	Eps           float64  `json:"eps"`
	ItemBytes     int      `json:"item_bytes"`
	Workload      string   `json:"workload"`
	Threshold     float64  `json:"threshold"`
	Promised      int      `json:"promised"`
	Recalled      int      `json:"recalled"`
	OutputSize    int      `json:"output_size"`
	MaxError      float64  `json:"max_recalled_error"`
	WallMS        int64    `json:"wall_ms"`
	ReportMS      int64    `json:"report_ms"`
	IngestMS      int64    `json:"ingest_ms"`
	IdentifyMS    int64    `json:"identify_ms"`
	ReportsPerSec float64  `json:"ingest_reports_per_sec"`
	BytesPerRep   int      `json:"bytes_per_report"`
	SketchBytes   int      `json:"sketch_bytes"`
	Top           []topRow `json:"top"`
}

// enumerableKind reports whether the kind's items must be ordinals of a
// bounded explicit domain.
func enumerableKind(k ldphh.Kind) bool {
	switch k {
	case ldphh.KindSmallDomain, ldphh.KindDirectHistogram, ldphh.KindBassilySmith, ldphh.KindStreamHG:
		return true
	}
	return false
}

// buildDataset synthesizes the population. Enumerable-domain protocols
// reject the planted workload's uniform random filler (it falls outside
// any enumerable domain), so those kinds require zipf or uniform, whose
// items are small ordinals.
func buildDataset(cfg benchConfig, kind ldphh.Kind, rng *rand.Rand) (*workload.Dataset, error) {
	dom := workload.Domain{ItemBytes: cfg.ItemBytes}
	switch cfg.Workload {
	case "planted":
		if enumerableKind(kind) {
			return nil, fmt.Errorf("protocol %q runs over an enumerable domain; use -workload zipf or uniform", cfg.Protocol)
		}
		return workload.Planted(dom, cfg.N, []float64{0.25, 0.18, 0.12}, rng)
	case "zipf":
		return workload.Zipf(dom, cfg.N, cfg.Support, cfg.ZipfS, rng)
	case "uniform":
		return workload.Uniform(dom, cfg.N, cfg.Support, rng)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
}

// newProtocol constructs one protocol instance from the config through the
// unified functional-options constructor. Both the device side and the
// server side of a round call it with identical arguments, which is the
// whole deployment contract: shared options, shared public randomness.
func newProtocol(cfg benchConfig, kind ldphh.Kind, ds *workload.Dataset) (ldphh.Protocol, error) {
	opts := []ldphh.Option{
		ldphh.WithEps(cfg.Eps), ldphh.WithN(cfg.N),
		ldphh.WithItemBytes(cfg.ItemBytes), ldphh.WithSeed(cfg.Seed),
	}
	if cfg.Y > 0 {
		opts = append(opts, ldphh.WithY(cfg.Y))
	}
	if cfg.Workers > 0 {
		opts = append(opts, ldphh.WithWorkers(cfg.Workers))
	}
	if enumerableKind(kind) {
		// zipf/uniform items are the ordinals [1, support]; pad by one for
		// the zero ordinal.
		opts = append(opts, ldphh.WithDomainSize(cfg.Support+1))
	}
	if kind == ldphh.KindStreamHG {
		if cfg.Windows > 0 {
			opts = append(opts, ldphh.WithWindows(cfg.Windows))
		}
		if cfg.TopK > 0 {
			opts = append(opts, ldphh.WithTopK(cfg.TopK))
		}
	}
	if kind == ldphh.KindPEM || kind == ldphh.KindFedTrie {
		if cfg.TopK > 0 {
			opts = append(opts, ldphh.WithTopK(cfg.TopK))
		}
	}
	if kind == ldphh.KindHashtogram {
		// A frequency oracle estimates a known dictionary; benchmark it on
		// the true top of the distribution (the deployment where the
		// candidate list is the product's URL/word allowlist).
		var candidates [][]byte
		for _, ic := range ds.TopK(32) {
			candidates = append(candidates, ic.Item)
		}
		opts = append(opts, ldphh.WithCandidates(candidates))
	}
	return ldphh.New(kind, opts...)
}

// runBench executes one full round — dataset synthesis, per-user reports,
// aggregation (in process or over TCP), identification — and scores it
// against exact ground truth. Every protocol goes through the identical
// unified code path; only the Kind differs.
func runBench(cfg benchConfig) (*benchResult, error) {
	kind, err := ldphh.ParseKind(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	if cfg.Transport == "" {
		cfg.Transport = "inproc"
	}
	if cfg.Fleets <= 0 {
		cfg.Fleets = 4
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 2))
	ds, err := buildDataset(cfg, kind, rng)
	if err != nil {
		return nil, err
	}

	device, err := newProtocol(cfg, kind, ds)
	if err != nil {
		return nil, err
	}
	agg, err := newProtocol(cfg, kind, ds)
	if err != nil {
		return nil, err
	}

	start := time.Now()

	// Device phase: one wire report per user.
	urng := rand.New(rand.NewPCG(cfg.Seed, 3))
	reports := make([]ldphh.WireReport, cfg.N)
	for i, x := range ds.Items {
		if reports[i], err = device.Report(x, i, urng); err != nil {
			return nil, err
		}
	}
	reportDur := time.Since(start)

	// Aggregation phase.
	ctx := context.Background()
	ingestStart := time.Now()
	var identifyDur time.Duration
	var est []ldphh.Estimate
	switch cfg.Transport {
	case "inproc":
		const window = 8192
		for lo := 0; lo < len(reports); lo += window {
			hi := min(lo+window, len(reports))
			if err := agg.AbsorbBatch(reports[lo:hi]); err != nil {
				return nil, err
			}
		}
		idStart := time.Now()
		if est, err = agg.Identify(ctx); err != nil {
			return nil, err
		}
		identifyDur = time.Since(idStart)
	case "tcp":
		srv, err := ldphh.NewAggregationServer(agg, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		var wg sync.WaitGroup
		sendErrs := make([]error, cfg.Fleets)
		for f := 0; f < cfg.Fleets; f++ {
			var batch []ldphh.WireReport
			for i := f; i < len(reports); i += cfg.Fleets {
				batch = append(batch, reports[i])
			}
			wg.Add(1)
			go func(f int, batch []ldphh.WireReport) {
				defer wg.Done()
				sendErrs[f] = ldphh.SendWireReports(ctx, srv.Addr(), batch)
			}(f, batch)
		}
		wg.Wait()
		for _, err := range sendErrs {
			if err != nil {
				return nil, err
			}
		}
		if got := srv.Absorbed(); got != cfg.N {
			return nil, fmt.Errorf("server absorbed %d of %d reports", got, cfg.N)
		}
		idStart := time.Now()
		if est, err = ldphh.RequestIdentifyContext(ctx, srv.Addr()); err != nil {
			return nil, err
		}
		identifyDur = time.Since(idStart)
	default:
		return nil, fmt.Errorf("unknown transport %q (inproc | tcp)", cfg.Transport)
	}
	ingestDur := time.Since(ingestStart) - identifyDur
	elapsed := time.Since(start)

	// Scoring: the protocol states its own recovery floor.
	threshold := 0.0
	if c, ok := agg.(ldphh.Calibrated); ok {
		threshold = c.MinRecoverableFrequency()
	}
	heavy := ds.HeavierThan(int(threshold))
	if kind == ldphh.KindHashtogram {
		// The oracle only answers its candidate set; score on that set.
		heavy = filterToTop(heavy, ds, 32)
	}
	recalled := 0
	maxErr := 0.0
	for _, h := range heavy {
		for _, e := range est {
			if string(e.Item) == string(h.Item) {
				recalled++
				if d := math.Abs(e.Count - float64(h.Count)); d > maxErr {
					maxErr = d
				}
				break
			}
		}
	}
	res := &benchResult{
		Protocol: cfg.Protocol, Transport: cfg.Transport,
		N: cfg.N, Eps: cfg.Eps, ItemBytes: cfg.ItemBytes,
		Workload: cfg.Workload, Threshold: threshold, Promised: len(heavy),
		Recalled: recalled, OutputSize: len(est), MaxError: maxErr,
		WallMS:        elapsed.Milliseconds(),
		ReportMS:      reportDur.Milliseconds(),
		IngestMS:      ingestDur.Milliseconds(),
		IdentifyMS:    identifyDur.Milliseconds(),
		ReportsPerSec: float64(cfg.N) / max(ingestDur.Seconds(), 1e-9),
		BytesPerRep:   agg.BytesPerReport(),
		SketchBytes:   agg.SketchBytes(),
	}
	for i, e := range est {
		if i >= 5 {
			break
		}
		res.Top = append(res.Top, topRow{
			Item: fmt.Sprintf("%x", e.Item),
			Est:  e.Count,
			True: ds.Count(e.Item),
		})
	}
	return res, nil
}

// filterToTop intersects the heavy list with the dataset's top-k items.
func filterToTop(heavy []workload.ItemCount, ds *workload.Dataset, k int) []workload.ItemCount {
	top := make(map[string]bool, k)
	for _, ic := range ds.TopK(k) {
		top[string(ic.Item)] = true
	}
	var out []workload.ItemCount
	for _, h := range heavy {
		if top[string(h.Item)] {
			out = append(out, h)
		}
	}
	return out
}

// table1Protocols is the -protocol all sweep: every heavy-hitters protocol
// of the paper's Table 1 comparison, driven through the identical path,
// plus the continuous-query streaming kind so its throughput rides the
// same artifact.
var table1Protocols = []string{"pes", "smalldomain", "bitstogram", "treehist", "bassilysmith", "streamhg"}

// runAll sweeps the Table 1 protocols with one shared config, forcing the
// zipf workload (legal for every domain regime).
func runAll(cfg benchConfig) ([]*benchResult, error) {
	var out []*benchResult
	for _, name := range table1Protocols {
		c := cfg
		c.Protocol = name
		c.Workload = "zipf"
		res, err := runBench(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// openResult is one open-domain discovery row: scored by recall against
// the true top-k with no candidate list handed to any protocol.
type openResult struct {
	Protocol     string  `json:"protocol"`
	N            int     `json:"n"`
	Eps          float64 `json:"eps"`
	ItemBytes    int     `json:"item_bytes"`
	K            int     `json:"k"`
	RecallAtK    float64 `json:"recall_at_k"`
	Rounds       int     `json:"rounds"`
	BytesPerUser int     `json:"bytes_per_user"`
	OutputSize   int     `json:"output_size"`
	WallMS       int64   `json:"wall_ms"`
}

// openDomainProtocols is the -opendomain sweep: the two interactive
// discovery kinds against the single-round open-domain machinery from the
// source paper's comparison.
var openDomainProtocols = []string{"pem", "fedtrie", "treehist", "pes"}

// runOpenDomain sweeps the open-domain protocols over one zipf population,
// scoring each by recall@k against exact ground truth. Interactive kinds
// are driven round by round in process (each user reports once, in their
// group's round, with the deterministic per-(round, user) generator);
// single-round kinds take the usual one-shot path. Every user sends exactly
// one report either way, so bytes_per_user is the payload size.
func runOpenDomain(cfg benchConfig) ([]*openResult, error) {
	k := cfg.TopK
	if k == 0 {
		k = 8
	}
	ctx := context.Background()
	var out []*openResult
	for _, name := range openDomainProtocols {
		kind, err := ldphh.ParseKind(name)
		if err != nil {
			return nil, err
		}
		c := cfg
		c.Protocol = name
		c.Workload = "zipf"
		c.TopK = k
		rng := rand.New(rand.NewPCG(c.Seed, 2))
		ds, err := workload.Zipf(workload.Domain{ItemBytes: c.ItemBytes}, c.N, c.Support, c.ZipfS, rng)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		// One instance serves both halves in process; for interactive kinds
		// that also keeps device and server round state trivially in sync.
		h, err := newProtocol(c, kind, ds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		start := time.Now()
		rounds := 1
		if it, ok := ldphh.AsInteractive(h); ok {
			rounds = 0
			for rs := it.RoundState(); !rs.Done; rs = it.RoundState() {
				for i, x := range ds.Items {
					wr, err := h.Report(x, i, ldphh.RoundRand(c.Seed, rs.Round, i))
					if errors.Is(err, ldphh.ErrNotInRound) {
						continue
					}
					if err != nil {
						return nil, fmt.Errorf("%s report %d: %w", name, i, err)
					}
					if err := h.Absorb(wr); err != nil {
						return nil, fmt.Errorf("%s absorb %d: %w", name, i, err)
					}
				}
				if _, err := it.AdvanceRound(); err != nil {
					return nil, fmt.Errorf("%s advance: %w", name, err)
				}
				rounds++
			}
		} else {
			urng := rand.New(rand.NewPCG(c.Seed, 3))
			for i, x := range ds.Items {
				wr, err := h.Report(x, i, urng)
				if err != nil {
					return nil, fmt.Errorf("%s report %d: %w", name, i, err)
				}
				if err := h.Absorb(wr); err != nil {
					return nil, fmt.Errorf("%s absorb %d: %w", name, i, err)
				}
			}
		}
		est, err := h.Identify(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s identify: %w", name, err)
		}
		elapsed := time.Since(start)

		have := make(map[string]bool, len(est))
		for _, e := range est {
			have[string(e.Item)] = true
		}
		hits := 0
		for _, tc := range ds.TopK(k) {
			if have[string(tc.Item)] {
				hits++
			}
		}
		out = append(out, &openResult{
			Protocol: name, N: c.N, Eps: c.Eps, ItemBytes: c.ItemBytes,
			K: k, RecallAtK: float64(hits) / float64(k), Rounds: rounds,
			BytesPerUser: h.BytesPerReport(), OutputSize: len(est),
			WallMS: elapsed.Milliseconds(),
		})
	}
	return out, nil
}

// writeJSONOpen emits the open-domain sweep as one indented JSON array
// (the BENCH_opendomain.json artifact shape).
func writeJSONOpen(w io.Writer, res []*openResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// writeTextOpen emits the human-readable open-domain row.
func writeTextOpen(w io.Writer, res *openResult) {
	fmt.Fprintf(w, "protocol=%-8s recall@%d=%.2f rounds=%d bytes/user=%d output=%d wall=%dms\n",
		res.Protocol, res.K, res.RecallAtK, res.Rounds, res.BytesPerUser, res.OutputSize, res.WallMS)
}

// writeJSON emits one result as an indented JSON object.
func writeJSON(w io.Writer, res *benchResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// writeJSONAll emits a result list as one indented JSON array (the
// BENCH_table1.json artifact shape).
func writeJSONAll(w io.Writer, res []*benchResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// writeText emits the human-readable report.
func writeText(w io.Writer, res *benchResult) {
	fmt.Fprintf(w, "protocol=%s transport=%s n=%d eps=%.1f |X|=256^%d workload=%s\n",
		res.Protocol, res.Transport, res.N, res.Eps, res.ItemBytes, res.Workload)
	fmt.Fprintf(w, "threshold (min recoverable frequency): %.0f (%.1f%% of n)\n",
		res.Threshold, 100*res.Threshold/float64(res.N))
	fmt.Fprintf(w, "items above threshold: %d, recalled: %d\n", res.Promised, res.Recalled)
	fmt.Fprintf(w, "output list size: %d, worst recalled-item error: %.0f\n", res.OutputSize, res.MaxError)
	fmt.Fprintf(w, "communication: %d payload bytes/report; server memory: %d bytes\n",
		res.BytesPerRep, res.SketchBytes)
	fmt.Fprintf(w, "wall time %dms (reports %dms, ingest %dms at %.2f M/s, identify %dms)\n",
		res.WallMS, res.ReportMS, res.IngestMS, res.ReportsPerSec/1e6, res.IdentifyMS)
	if len(res.Top) > 0 {
		fmt.Fprintln(w, "top estimates:")
		for _, row := range res.Top {
			fmt.Fprintf(w, "  %s  est=%8.0f  true=%d\n", row.Item, row.Est, row.True)
		}
	}
}
