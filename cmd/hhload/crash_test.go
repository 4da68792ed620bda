package main

import (
	"os"
	"testing"
)

// TestMain dispatches the re-exec child role: when the crash scenario
// re-executes the test binary with HHLOAD_SERVE=1, this process must act
// as the killable aggregation server instead of running the test suite.
func TestMain(m *testing.M) {
	maybeServeChild() // never returns in the child role
	os.Exit(m.Run())
}

// TestCrashScenarioKillRestart is the automated kill -9 acceptance test:
// a child server process with ack-coupled checkpoints is SIGKILLed
// mid-ingest, restarted over the same checkpoint directory, holds exactly
// the acknowledged prefix, and after replaying only the unacknowledged
// batches identifies bit-identically to an uninterrupted run.
func TestCrashScenarioKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill/restart scenario skipped in -short mode")
	}
	cfg := loadConfig{
		Protocol: "pes", Devices: 20000, Conns: 1, Batch: 4000,
		Eps: 4, ItemBytes: 4, ZipfS: 1.1, Support: 1000,
		Seed: 7, Y: 16,
	}
	res, err := runCrashScenario(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BitIdentical {
		t.Fatal("recovered identification diverged from the uninterrupted run")
	}
	if res.RecoveredReports != 3*cfg.Batch {
		t.Fatalf("recovered %d reports, want %d (exactly the acked prefix — the unacked window and nothing else is lost)",
			res.RecoveredReports, 3*cfg.Batch)
	}
	if res.FinalReports != cfg.Devices {
		t.Fatalf("final report count %d, want %d", res.FinalReports, cfg.Devices)
	}
	if res.EstimatesCompared == 0 {
		t.Fatal("no estimates compared — the equivalence check was vacuous")
	}
}
