// Command hhload is the open-loop ingest load generator: it simulates a
// million-device report fleet against the aggregation server's TCP wire
// and measures what the ingest path sustains — reports/sec, p50/p99 ingest
// latency, allocations per report.
//
// Each simulated device contributes one ε-LDP report (items zipf-drawn
// over a configurable support). Reports are pre-generated, then -conns
// concurrent senders deliver them as -batch sized mega-batches, each over
// one persistent IngestConn — one dial per connection for the whole run.
//
// With -rate > 0 the run is open loop: send slots fire on the global
// arrival clock whether or not earlier sends finished, so p99 shows
// queueing once the server falls behind. The default writes the
// BENCH_ingest.json artifact for PES and Hashtogram:
//
//	hhload -devices 1000000 -out BENCH_ingest.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ldphh/internal/profiling"
)

var (
	protocols = flag.String("protocols", "pes,hashtogram", "comma-separated registered protocol names")
	devices   = flag.Int("devices", 1_000_000, "simulated devices (one report each)")
	conns     = flag.Int("conns", 8, "concurrent sender connections")
	batch     = flag.Int("batch", 4096, "reports per mega-batch send")
	rate      = flag.Float64("rate", 0, "target arrival rate in reports/sec; 0 opens the throttle")
	eps       = flag.Float64("eps", 4, "privacy budget per device")
	itemBytes = flag.Int("itembytes", 4, "item width in bytes")
	zipfS     = flag.Float64("zipf-s", 1.1, "zipf exponent of the item distribution")
	support   = flag.Int("support", 1000, "zipf support size")
	seed      = flag.Uint64("seed", 1, "seed for all randomness")
	y         = flag.Int("y", 64, "per-coordinate hash range (pes)")
	outPath   = flag.String("out", "", "write the JSON artifact to this file")
	scenario  = flag.String("scenario", "",
		"alternative exercise: \"crash\" runs the kill -9 + restart durability scenario instead of the throughput sweep")
	killAfter = flag.Int("kill-after", 3,
		"crash scenario: acknowledged mega-batches before the SIGKILL")
	cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProf = flag.String("memprofile", "", "write a post-run heap profile to this file")
)

func main() {
	maybeServeChild() // re-exec dispatch; never returns in the child role
	flag.Parse()
	if *scenario != "" {
		runScenario()
		return
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhload: %v\n", err)
		os.Exit(1)
	}
	var results []*loadResult
	for _, proto := range strings.Split(*protocols, ",") {
		cfg := loadConfig{
			Protocol:  strings.TrimSpace(proto),
			Devices:   *devices,
			Conns:     *conns,
			Batch:     *batch,
			Rate:      *rate,
			Eps:       *eps,
			ItemBytes: *itemBytes,
			ZipfS:     *zipfS,
			Support:   *support,
			Seed:      *seed,
			Y:         *y,
		}
		res, err := runLoad(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hhload: %s: %v\n", cfg.Protocol, err)
			os.Exit(1)
		}
		writeTextResult(os.Stdout, res)
		results = append(results, res)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "hhload: %v\n", err)
		os.Exit(1)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hhload: %v\n", err)
			os.Exit(1)
		}
		if err := writeResults(f, results); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hhload: %v\n", err)
			os.Exit(1)
		}
	}
}

// runScenario dispatches the non-sweep exercises. The crash scenario runs
// over the first listed protocol.
func runScenario() {
	if *scenario != "crash" {
		fmt.Fprintf(os.Stderr, "hhload: unknown scenario %q (crash)\n", *scenario)
		os.Exit(1)
	}
	cfg := loadConfig{
		Protocol:  strings.TrimSpace(strings.Split(*protocols, ",")[0]),
		Devices:   *devices,
		Conns:     1,
		Batch:     *batch,
		Eps:       *eps,
		ItemBytes: *itemBytes,
		ZipfS:     *zipfS,
		Support:   *support,
		Seed:      *seed,
		Y:         *y,
	}
	res, err := runCrashScenario(cfg, *killAfter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhload: crash scenario: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("crash scenario (%s): %d devices, killed after %d acked batches of %d, "+
		"recovered %d reports from disk, replayed %d batches, identify bit-identical over %d estimates\n",
		res.Protocol, res.Devices, res.BatchesAcked, res.Batch,
		res.RecoveredReports, res.BatchesReplayed, res.EstimatesCompared)
	if *outPath != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hhload: %v\n", err)
			os.Exit(1)
		}
	}
}
