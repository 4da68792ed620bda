package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRunBenchJSON drives the extracted round function exactly as
// `hhbench -json` does and parses the emitted JSON result object back,
// pinning the output contract scripted consumers depend on.
func TestRunBenchJSON(t *testing.T) {
	// n large enough that the top planted fraction (25%) clears the
	// configuration's sqrt(n·M)-shaped recovery floor, keeping the recall
	// assertion non-vacuous.
	res, err := runBench(benchConfig{
		N: 16000, Eps: 4, ItemBytes: 4, Protocol: "pes",
		Workload: "planted", Seed: 1, Y: 64, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Protocol   string  `json:"protocol"`
		N          int     `json:"n"`
		Eps        float64 `json:"eps"`
		Workload   string  `json:"workload"`
		Threshold  float64 `json:"threshold"`
		Promised   int     `json:"promised"`
		Recalled   int     `json:"recalled"`
		OutputSize int     `json:"output_size"`
		MaxError   float64 `json:"max_recalled_error"`
		WallMS     int64   `json:"wall_ms"`
		Top        []struct {
			Item string  `json:"item"`
			Est  float64 `json:"estimate"`
			True int     `json:"true"`
		} `json:"top"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("emitted JSON does not parse: %v\n%s", err, buf.String())
	}
	if parsed.Protocol != "pes" || parsed.N != 16000 || parsed.Workload != "planted" {
		t.Fatalf("JSON round-trip mangled the config: %+v", parsed)
	}
	if parsed.Threshold <= 0 {
		t.Fatalf("threshold %v not positive", parsed.Threshold)
	}
	if parsed.Promised < 1 || parsed.Recalled < parsed.Promised {
		t.Fatalf("promised %d items, recalled %d — the seeded round regressed", parsed.Promised, parsed.Recalled)
	}
	if parsed.OutputSize != len(parsed.Top) && len(parsed.Top) != 5 {
		t.Fatalf("top rows %d inconsistent with output size %d", len(parsed.Top), parsed.OutputSize)
	}
	for _, row := range parsed.Top {
		if row.Item == "" {
			t.Fatal("top row with empty item")
		}
	}
}

// TestRunBenchBaselinesAndErrors smoke-tests the non-default protocol and
// workload switches plus the error paths so every main-package branch runs
// under `go test`.
func TestRunBenchBaselinesAndErrors(t *testing.T) {
	if _, err := runBench(benchConfig{
		N: 4000, Eps: 4, ItemBytes: 2, Protocol: "bitstogram",
		Workload: "zipf", ZipfS: 1.1, Support: 200, Seed: 1,
	}); err != nil {
		t.Fatalf("bitstogram/zipf round: %v", err)
	}
	if _, err := runBench(benchConfig{N: 1000, Eps: 4, ItemBytes: 2, Protocol: "nope", Workload: "planted", Seed: 1}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := runBench(benchConfig{N: 1000, Eps: 4, ItemBytes: 2, Protocol: "pes", Workload: "nope", Seed: 1}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := runBench(benchConfig{N: 1000, Eps: 4, ItemBytes: 2, Protocol: "pes", Workload: "planted", Transport: "nope", Seed: 1}); err == nil {
		t.Fatal("unknown transport accepted")
	}
	// Enumerable-domain protocols reject the planted workload's random
	// filler instead of producing out-of-domain reports.
	if _, err := runBench(benchConfig{N: 1000, Eps: 4, ItemBytes: 2, Protocol: "bassilysmith", Workload: "planted", Seed: 1}); err == nil {
		t.Fatal("bassilysmith/planted accepted")
	}
}

// TestRunBenchTCPTransport pins the -transport tcp path: the identical
// round over a real socket produces the identical recall contract.
func TestRunBenchTCPTransport(t *testing.T) {
	res, err := runBench(benchConfig{
		N: 8000, Eps: 4, ItemBytes: 2, Protocol: "smalldomain", Transport: "tcp",
		Workload: "zipf", ZipfS: 1.4, Support: 100, Seed: 1, Fleets: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport != "tcp" {
		t.Fatalf("transport = %q", res.Transport)
	}
	if res.Promised < 1 || res.Recalled < res.Promised {
		t.Fatalf("promised %d, recalled %d over TCP", res.Promised, res.Recalled)
	}
	if res.BytesPerRep != 5 {
		t.Fatalf("smalldomain bytes/report = %d, want 5", res.BytesPerRep)
	}
}

// TestRunBenchStreamHG drives the streaming kind through the identical
// bench path: the bounded HeavyGuardian structure must honor the same
// promised-vs-recalled contract the batch protocols do, with the -windows
// and -topk knobs reaching the facade.
func TestRunBenchStreamHG(t *testing.T) {
	res, err := runBench(benchConfig{
		N: 8000, Eps: 16, ItemBytes: 2, Protocol: "streamhg",
		Workload: "zipf", ZipfS: 1.4, Support: 100, Seed: 1,
		Windows: 2, TopK: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Promised < 1 || res.Recalled < res.Promised {
		t.Fatalf("promised %d, recalled %d — the streaming round regressed", res.Promised, res.Recalled)
	}
	if res.OutputSize > 24 {
		t.Fatalf("output size %d exceeds the requested top-24", res.OutputSize)
	}
}

// TestRunAllEmitsJSONArray drives the -protocol all sweep at a small size
// and pins the artifact shape BENCH_table1.json consumers parse.
func TestRunAllEmitsJSONArray(t *testing.T) {
	if testing.Short() {
		t.Skip("five full protocol rounds")
	}
	results, err := runAll(benchConfig{
		N: 6000, Eps: 4, ItemBytes: 2, Workload: "planted",
		ZipfS: 1.4, Support: 100, Seed: 1, Y: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(table1Protocols) {
		t.Fatalf("%d results, want %d", len(results), len(table1Protocols))
	}
	var buf bytes.Buffer
	if err := writeJSONAll(&buf, results); err != nil {
		t.Fatal(err)
	}
	var parsed []struct {
		Protocol      string  `json:"protocol"`
		Workload      string  `json:"workload"`
		ReportsPerSec float64 `json:"ingest_reports_per_sec"`
		BytesPerRep   int     `json:"bytes_per_report"`
		SketchBytes   int     `json:"sketch_bytes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	for i, row := range parsed {
		if row.Protocol != table1Protocols[i] {
			t.Errorf("row %d protocol %q, want %q", i, row.Protocol, table1Protocols[i])
		}
		if row.Workload != "zipf" {
			t.Errorf("%s: sweep workload %q, want zipf", row.Protocol, row.Workload)
		}
		if row.ReportsPerSec <= 0 || row.BytesPerRep <= 0 || row.SketchBytes <= 0 {
			t.Errorf("%s: degenerate throughput row %+v", row.Protocol, row)
		}
	}
}

// TestRunOpenDomain drives the -opendomain sweep at a small size and pins
// the BENCH_opendomain.json artifact shape plus its headline claim: the
// interactive kinds discover at least as much of the true top-k as the
// single-round baselines with no candidate list anywhere.
func TestRunOpenDomain(t *testing.T) {
	results, err := runOpenDomain(benchConfig{
		N: 12000, Eps: 4, ItemBytes: 2, ZipfS: 1.4, Support: 64, Seed: 1, Y: 16, TopK: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(openDomainProtocols) {
		t.Fatalf("%d results, want %d", len(results), len(openDomainProtocols))
	}
	var buf bytes.Buffer
	if err := writeJSONOpen(&buf, results); err != nil {
		t.Fatal(err)
	}
	var parsed []struct {
		Protocol     string  `json:"protocol"`
		K            int     `json:"k"`
		RecallAtK    float64 `json:"recall_at_k"`
		Rounds       int     `json:"rounds"`
		BytesPerUser int     `json:"bytes_per_user"`
		WallMS       int64   `json:"wall_ms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	byName := map[string]float64{}
	for i, row := range parsed {
		if row.Protocol != openDomainProtocols[i] {
			t.Errorf("row %d protocol %q, want %q", i, row.Protocol, openDomainProtocols[i])
		}
		if row.K != 8 || row.RecallAtK < 0 || row.RecallAtK > 1 || row.BytesPerUser <= 0 {
			t.Errorf("%s: degenerate row %+v", row.Protocol, row)
		}
		if interactive := row.Protocol == "pem" || row.Protocol == "fedtrie"; interactive != (row.Rounds > 1) {
			t.Errorf("%s: rounds = %d", row.Protocol, row.Rounds)
		}
		byName[row.Protocol] = row.RecallAtK
	}
	if byName["pem"] == 0 {
		t.Error("pem discovered nothing on the open domain")
	}
	if byName["pem"] < byName["treehist"] {
		t.Errorf("pem recall %.2f below treehist %.2f", byName["pem"], byName["treehist"])
	}
}

// TestWriteText pins the human-readable report's load-bearing lines.
func TestWriteText(t *testing.T) {
	res, err := runBench(benchConfig{
		N: 4000, Eps: 4, ItemBytes: 4, Protocol: "pes",
		Workload: "planted", Seed: 1, Y: 16, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	writeText(&buf, res)
	out := buf.String()
	for _, want := range []string{"protocol=pes", "threshold", "recalled", "wall time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
}
