// Command hhbench runs parameterized heavy-hitters rounds through the
// unified protocol surface and reports recall, error and throughput against
// exact ground truth. Every registered protocol is benchable through the
// identical code path, in process or over real TCP:
//
//	hhbench -n 60000 -eps 4 -itembytes 4 -protocol pes -workload zipf
//	hhbench -protocol treehist -transport tcp -itembytes 2
//	hhbench -protocol all -json -out BENCH_table1.json
//	hhbench -opendomain -json -out BENCH_opendomain.json
//
// -protocol all sweeps the Table 1 comparison (pes, smalldomain,
// bitstogram, treehist, bassilysmith, streamhg) over the zipf workload and
// emits a JSON array — the per-protocol throughput artifact CI accumulates.
// -opendomain sweeps the multi-round discovery kinds (pem, fedtrie) against
// treehist and pes on a zipf population with no candidate list, scoring
// recall@k against exact ground truth (the BENCH_opendomain.json artifact).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ldphh/internal/profiling"
)

var (
	n         = flag.Int("n", 60000, "number of users")
	eps       = flag.Float64("eps", 4, "privacy budget per user")
	itemBytes = flag.Int("itembytes", 4, "item width in bytes")
	proto     = flag.String("protocol", "pes", "registered protocol name, or 'all' for the Table 1 sweep")
	transport = flag.String("transport", "inproc", "inproc | tcp (full report round trip over a real socket)")
	load      = flag.String("workload", "planted", "planted | zipf | uniform")
	zipfS     = flag.Float64("zipf-s", 1.1, "zipf exponent")
	support   = flag.Int("support", 1000, "zipf/uniform support size")
	seed      = flag.Uint64("seed", 1, "seed for all randomness")
	y         = flag.Int("y", 64, "per-coordinate hash range (pes)")
	workers   = flag.Int("workers", 0, "Identify worker-pool size (pes; 0 = GOMAXPROCS)")
	fleets    = flag.Int("fleets", 4, "concurrent sender connections (tcp transport)")
	windows   = flag.Int("windows", 0, "per-user budget split w (streamhg; 0 = facade default)")
	topk      = flag.Int("topk", 0, "answer size: streaming top-k (streamhg) or discovery target k (pem/fedtrie, -opendomain; 0 = default)")
	openDom   = flag.Bool("opendomain", false, "sweep the open-domain discovery comparison (pem, fedtrie, treehist, pes) with no candidate list")
	jsonOut   = flag.Bool("json", false, "emit JSON instead of text")
	outPath   = flag.String("out", "", "also write the (JSON) result to this file")
	cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProf   = flag.String("memprofile", "", "write a post-run heap profile to this file")
)

func main() {
	flag.Parse()
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	fatal(err)
	cfg := benchConfig{
		N:         *n,
		Eps:       *eps,
		ItemBytes: *itemBytes,
		Protocol:  *proto,
		Transport: *transport,
		Workload:  *load,
		ZipfS:     *zipfS,
		Support:   *support,
		Seed:      *seed,
		Y:         *y,
		Workers:   *workers,
		Fleets:    *fleets,
		Windows:   *windows,
		TopK:      *topk,
	}
	if *openDom {
		results, err := runOpenDomain(cfg)
		fatal(err)
		fatal(stopProf())
		fatal(emit(func(w io.Writer) error { return writeJSONOpen(w, results) }))
		if !*jsonOut {
			for _, res := range results {
				writeTextOpen(os.Stdout, res)
			}
		}
		return
	}
	if *proto == "all" {
		results, err := runAll(cfg)
		fatal(err)
		fatal(stopProf())
		fatal(emit(func(w io.Writer) error { return writeJSONAll(w, results) }))
		if !*jsonOut {
			for _, res := range results {
				writeText(os.Stdout, res)
				fmt.Println()
			}
		}
		return
	}
	res, err := runBench(cfg)
	fatal(err)
	fatal(stopProf())
	fatal(emit(func(w io.Writer) error { return writeJSON(w, res) }))
	if !*jsonOut {
		writeText(os.Stdout, res)
	}
}

// emit writes the JSON form to -out (when set) and to stdout (when -json
// was requested).
func emit(writeTo func(io.Writer) error) error {
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		if err := writeTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *jsonOut {
		return writeTo(os.Stdout)
	}
	return nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hhbench:", err)
		os.Exit(1)
	}
}
