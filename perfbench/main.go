// Command perfbench is the repository benchmark. It starts aggregation
// servers in process on loopback and drives them through the ldphh facade
// only (New, NewAggregationServer and its ServerOptions, DialIngest with
// IngestConn.SendEncoded, and the context-taking Identify, snapshot and
// push calls), closed loop, with at most two connections.
//
//	go build -o perfbench . && ./perfbench --workload pes_fanin --seed 1 --seconds 40 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1, built with -tags perftrace) alternates untraced and traced
// rounds and prints the per-layer metrics, a closure line per phase and
// the tracing overhead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A failed
// correctness check exits 1; a run that cannot start exits 2.
//
// BENCHMARK.json at the repository root lists the workloads and metrics;
// vocabulary.json here defines each of them. run.py builds and runs the
// benchmark from the repository root; "go test ." here checks that the
// traced wrapper takes the same server paths as a bare aggregator.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildDir holds the run's scratch space and span files, relative to the
// checkout root the benchmark runs from.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "pes_fanin | hashtogram_durable")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the population, every report and the public randomness derive from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the rounds run (at least three rounds, four when traced)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant (per-layer metrics)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	if o.trace && !traceBuilt {
		fmt.Fprintln(os.Stderr, "perfbench: --trace 1 needs the binary built with -tags perftrace")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(scratch)

	w := newWorkload(o.workload, scratch)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (pes_fanin | hashtogram_durable)\n", o.workload)
		return 2
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d NumCPU=%d cpu=%q %s/%s %s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(),
		runtime.GOOS, runtime.GOARCH, runtime.Version())

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	b := &bench{opts: o, scratch: scratch}
	res, err := b.execute(ctx, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	for _, p := range b.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// newWorkload returns the named workload, or nil. scratch is the run's
// scratch directory inside the checkout.
func newWorkload(name, scratch string) workload {
	switch name {
	case "pes_fanin":
		return &pesWorkload{}
	case "hashtogram_durable":
		return &durableWorkload{scratch: scratch}
	}
	return nil
}

// execute runs the workload's set-ups and rounds, the after-run checks and,
// when traced, the probes; it prints the human-readable report and returns
// the result line.
func (b *bench) execute(ctx context.Context, w workload) (*result, error) {
	setups, pop, rounds, err := b.runRounds(ctx, w)
	if err != nil {
		return nil, err
	}
	b.checkReplay(ctx, w, pop, rounds)

	lanes, checkpointing := pesLanes, false
	if _, ok := w.(*durableWorkload); ok {
		lanes, checkpointing = 1, true
	}
	name := fmt.Sprint(w)
	var bare []*round
	for _, r := range rounds {
		if !r.traced {
			bare = append(bare, r)
		}
	}
	e2e, samples := endToEnd(setups, bare)
	fmt.Printf("%s: %d devices, %d-byte frames, %d rounds (%d untraced), set-ups %v s\n",
		name, pop.devices(), pop.frameLen, len(rounds), len(bare), roundTo(setups, 3))
	for i, r := range rounds {
		fmt.Printf("  round %d traced=%v: ingest %.1f ms (%.0f reports/s, %d batches, ack p50 %.4f p95 %.4f ms), answer %.1f ms, %d estimates, recall %.3f over %d heavy items, peak heap %.0f MB\n",
			i, r.traced, ms(r.ing.wall), float64(r.ing.total())/r.ing.wall.Seconds(), r.ing.batches,
			quantile(r.ing.lat, 0.5), quantile(r.ing.lat, 0.95), ms(r.answer), len(r.est), r.recall, r.heavy, r.peakHeapMB)
	}
	beyond := samples - int(0.95*float64(samples))
	fmt.Printf("ack latency: %d samples over %d untraced rounds; %d beyond the p95\n", samples, len(bare), beyond)
	b.check(beyond >= 10, "only %d ack samples; the p95 needs at least 10 beyond it", samples)
	res := &result{Metrics: map[string]metric{}}
	for _, m := range endToEndUnits {
		fmt.Printf("  %-14s %14.4f %s\n", m.name, e2e[m.name], m.unit)
	}
	if !b.opts.trace {
		for _, m := range endToEndUnits {
			res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
	} else {
		pr, err := runProbes(ctx, w.probeTarget())
		if err != nil {
			return nil, err
		}
		lm := layerMetrics(pop, rounds, lanes, checkpointing, pr)
		for _, m := range layerUnits {
			res.Metrics[m.name] = metric{Value: lm[m.name], Unit: m.unit}
			fmt.Printf("  %-28s %16.4f %s\n", m.name, lm[m.name], m.unit)
		}
		c := newClosure(pr)
		traced := 0
		spanFile := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.tsv", name, b.opts.seed))
		os.Remove(spanFile) //nolint:errcheck // replaced below
		for i, r := range rounds {
			if r.traced {
				c.addRound(r, checkpointing)
				traced++
				if err := r.rec.writeTo(spanFile, i); err != nil {
					return nil, err
				}
			}
		}
		c.print(os.Stdout, name, traced)
		overhead(os.Stdout, rounds)
		fmt.Printf("spans written to %s\n", spanFile)
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = len(b.problems) == 0
	return res, nil
}

func roundTo(xs []float64, digits int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.*f", digits, x)
	}
	return out
}

// cpuModel reads the CPU model name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
