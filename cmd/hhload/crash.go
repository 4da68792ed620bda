package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"ldphh"
)

// The crash scenario (-scenario crash) is the durability acceptance test
// run as a real process pair: a child aggregation server with ack-coupled
// checkpoints (WithCheckpointEvery == the mega-batch size) is killed with
// SIGKILL mid-ingest, restarted over the same checkpoint directory, and
// the parent replays only the batches the dead server never acknowledged.
// The restarted server must hold exactly the acknowledged prefix after
// recovery, and its final Identify must be bit-identical to an
// uninterrupted in-process run over the same report population — the
// crash cost the round nothing but the unacknowledged window.
//
// The child is this same binary re-executed with HHLOAD_SERVE=1 (works
// identically for the installed binary and the go-test binary, whose
// TestMain performs the same dispatch), so the kill is a genuine
// process-level SIGKILL, not an in-process simulation.

// serveEnv is the environment variable carrying the child's JSON config.
const (
	serveFlagEnv = "HHLOAD_SERVE"
	serveCfgEnv  = "HHLOAD_SERVE_CFG"
)

// serveConfig is what the parent ships to the re-executed child.
type serveConfig struct {
	Load     loadConfig `json:"load"`
	CkptDir  string     `json:"ckpt_dir"`
	AddrFile string     `json:"addr_file"` // child writes "ingestAddr\nmetricsAddr\n" here
}

// crashResult is the recovered-vs-uninterrupted comparison artifact the CI
// recovery job uploads.
type crashResult struct {
	Protocol          string `json:"protocol"`
	Devices           int    `json:"devices"`
	Batch             int    `json:"batch"`
	BatchesAcked      int    `json:"batches_acked_before_kill"`
	BatchesReplayed   int    `json:"batches_replayed"`
	RecoveredReports  int    `json:"recovered_reports"`
	FinalReports      int    `json:"final_reports"`
	EstimatesCompared int    `json:"estimates_compared"`
	BitIdentical      bool   `json:"bit_identical"`
}

// maybeServeChild dispatches to the child server role when the
// re-exec environment is set; it never returns in that case.
func maybeServeChild() {
	if os.Getenv(serveFlagEnv) != "1" {
		return
	}
	if err := serveChild(); err != nil {
		fmt.Fprintln(os.Stderr, "hhload child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// serveChild is the killable aggregation server: checkpointing is
// ack-coupled at the parent's mega-batch size, so every acknowledged batch
// is on disk before the parent retires it, and SIGKILL at any instant can
// only lose unacknowledged sends. It parks until killed.
func serveChild() error {
	var cfg serveConfig
	if err := json.Unmarshal([]byte(os.Getenv(serveCfgEnv)), &cfg); err != nil {
		return fmt.Errorf("decoding %s: %w", serveCfgEnv, err)
	}
	kind, err := ldphh.ParseKind(cfg.Load.Protocol)
	if err != nil {
		return err
	}
	agg, err := newLoadProtocol(cfg.Load, kind)
	if err != nil {
		return err
	}
	srv, err := ldphh.NewAggregationServer(agg, "127.0.0.1:0",
		ldphh.WithCheckpointDir(cfg.CkptDir),
		ldphh.WithCheckpointEvery(cfg.Load.Batch),
		ldphh.WithCheckpointInterval(0), // determinism: only ack-coupled checkpoints
		ldphh.WithMetricsAddr("127.0.0.1:0"))
	if err != nil {
		return err
	}
	// Atomic publish so the parent never reads a half-written address.
	tmp := cfg.AddrFile + ".tmp"
	body := fmt.Sprintf("%s\n%s\n", srv.Addr(), srv.MetricsAddr())
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, cfg.AddrFile); err != nil {
		return err
	}
	select {} // park until SIGKILL (the point of the exercise)
}

// startChild re-executes this binary as a server child and returns the
// process plus its published ingest and metrics addresses.
func startChild(cfg serveConfig) (*exec.Cmd, string, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", "", err
	}
	blob, err := json.Marshal(cfg)
	if err != nil {
		return nil, "", "", err
	}
	os.Remove(cfg.AddrFile) //nolint:errcheck // stale file from a previous child
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), serveFlagEnv+"=1", serveCfgEnv+"="+string(blob))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, "", "", err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if body, err := os.ReadFile(cfg.AddrFile); err == nil {
			fields := bytes.Fields(body)
			if len(fields) == 2 {
				return cmd, string(fields[0]), string(fields[1]), nil
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill() //nolint:errcheck // giving up on the child
			cmd.Wait()         //nolint:errcheck
			return nil, "", "", fmt.Errorf("child never published its address")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// healthSummary is the subset of the /healthz JSON the scenario checks.
type healthSummary struct {
	Status   string `json:"status"`
	Resident int    `json:"resident"`
}

func readHealth(metricsAddr string) (healthSummary, error) {
	var h healthSummary
	resp, err := http.Get("http://" + metricsAddr + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return h, err
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return h, fmt.Errorf("parsing /healthz %q: %w", body, err)
	}
	return h, nil
}

// runCrashScenario executes the kill -9 + restart exercise and returns the
// comparison artifact. killAfter is the number of acknowledged mega-batches
// before the SIGKILL.
func runCrashScenario(cfg loadConfig, killAfter int) (*crashResult, error) {
	kind, err := ldphh.ParseKind(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	// One lane: the scenario is about durability, not sender concurrency,
	// and a single acknowledged sequence makes "the unacked window" exact.
	cfg.Conns = 1
	lanes, err := generateLanes(cfg, kind)
	if err != nil {
		return nil, err
	}
	lane := lanes[0]
	chunkBytes := cfg.Batch * lane.frameLen
	totalBatches := (len(lane.slab) + chunkBytes - 1) / chunkBytes
	if killAfter <= 0 || killAfter >= totalBatches {
		return nil, fmt.Errorf("hhload: -kill-after %d must be in (0, %d) so the kill lands mid-ingest", killAfter, totalBatches)
	}
	chunk := func(i int) []byte {
		return lane.slab[i*chunkBytes : min((i+1)*chunkBytes, len(lane.slab))]
	}

	dir, err := os.MkdirTemp("", "hhload-ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	scfg := serveConfig{Load: cfg, CkptDir: dir, AddrFile: filepath.Join(dir, "addr")}

	// Phase 1: ingest killAfter acknowledged batches, then SIGKILL.
	ctx := context.Background()
	child, addr, _, err := startChild(scfg)
	if err != nil {
		return nil, err
	}
	conn, err := ldphh.DialIngest(ctx, addr, kind)
	if err != nil {
		child.Process.Kill() //nolint:errcheck // teardown
		child.Wait()         //nolint:errcheck
		return nil, err
	}
	for i := 0; i < killAfter; i++ {
		if err := conn.SendEncoded(ctx, chunk(i)); err != nil {
			child.Process.Kill() //nolint:errcheck // teardown
			child.Wait()         //nolint:errcheck
			return nil, fmt.Errorf("acked ingest batch %d: %w", i, err)
		}
	}
	conn.Close() //nolint:errcheck // the server is about to die anyway
	if err := child.Process.Kill(); err != nil {
		return nil, err
	}
	child.Wait() //nolint:errcheck // SIGKILL reports an unsuccessful exit by design

	// Phase 2: restart over the same directory; recovery must hold exactly
	// the acknowledged prefix — kill -9 lost nothing that was acked.
	child2, addr2, maddr2, err := startChild(scfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		child2.Process.Kill() //nolint:errcheck // teardown
		child2.Wait()         //nolint:errcheck
	}()
	health, err := readHealth(maddr2)
	if err != nil {
		return nil, err
	}
	acked := killAfter * cfg.Batch
	if health.Status != "ok" || health.Resident != acked {
		return nil, fmt.Errorf("restarted server /healthz = %+v, want status ok with %d recovered reports", health, acked)
	}

	// Phase 3: replay only the unacknowledged batches and identify.
	conn2, err := ldphh.DialIngest(ctx, addr2, kind)
	if err != nil {
		return nil, err
	}
	for i := killAfter; i < totalBatches; i++ {
		if err := conn2.SendEncoded(ctx, chunk(i)); err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", i, err)
		}
	}
	conn2.Close() //nolint:errcheck // all batches acked
	est, err := ldphh.RequestIdentifyContext(ctx, addr2)
	if err != nil {
		return nil, err
	}

	// Reference: one uninterrupted in-process aggregator over the same
	// population.
	ref, err := newLoadProtocol(cfg, kind)
	if err != nil {
		return nil, err
	}
	views := make([]ldphh.WireReport, cfg.Devices)
	for i := range views {
		views[i] = ldphh.WireReport(lane.slab[i*lane.frameLen : (i+1)*lane.frameLen])
	}
	if err := ref.AbsorbBatch(views); err != nil {
		return nil, err
	}
	want, err := ref.Identify(ctx)
	if err != nil {
		return nil, err
	}
	if len(est) != len(want) {
		return nil, fmt.Errorf("recovered run identified %d items, uninterrupted run %d", len(est), len(want))
	}
	for i := range est {
		if !bytes.Equal(est[i].Item, want[i].Item) ||
			math.Float64bits(est[i].Count) != math.Float64bits(want[i].Count) {
			return nil, fmt.Errorf("identification diverged at rank %d: %x/%v vs %x/%v",
				i, est[i].Item, est[i].Count, want[i].Item, want[i].Count)
		}
	}
	return &crashResult{
		Protocol:          cfg.Protocol,
		Devices:           cfg.Devices,
		Batch:             cfg.Batch,
		BatchesAcked:      killAfter,
		BatchesReplayed:   totalBatches - killAfter,
		RecoveredReports:  acked,
		FinalReports:      cfg.Devices,
		EstimatesCompared: len(est),
		BitIdentical:      true,
	}, nil
}
