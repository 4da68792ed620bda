package protocol

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"ldphh/internal/interactive"
	"ldphh/internal/proto"
)

// pemParams builds a small open-domain discovery round: 2-byte items
// revealed 4 bits per round over 4 rounds, ~1500 users per group.
func pemParams(seed uint64) interactive.Params {
	return interactive.Params{
		Mode: interactive.ModePEM, Eps: 4, N: 6000, ItemBytes: 2,
		TopK: 8, Seed: seed,
	}
}

// openItem plants two heavies (40% and 30% of the population) over a thin
// open-domain tail.
func openItem(i int) []byte {
	switch {
	case i%10 < 4:
		return []byte{0x12, 0x34}
	case i%10 < 7:
		return []byte{0xBE, 0xEF}
	default:
		return []byte{0x40, byte(40 + i%97)}
	}
}

// openReports computes the wire reports of every user assigned to the
// device fleet's open round (the device engine must already hold the
// round's broadcast). Per-(round, user) generators keep the fleet
// deterministic at any replay concurrency.
func openReports(t *testing.T, dev *interactive.Wire, p interactive.Params, round int) []proto.WireReport {
	t.Helper()
	var out []proto.WireReport
	for u := 0; u < p.N; u++ {
		wr, err := dev.Report(openItem(u), u, interactive.RoundRand(p.Seed, round, u))
		if errors.Is(err, interactive.ErrNotInRound) {
			continue
		}
		if err != nil {
			t.Fatalf("user %d round %d: %v", u, round, err)
		}
		out = append(out, wr)
	}
	return out
}

// refOpenDomain runs the whole discovery in process — the bit-identical
// reference every wire variant must reproduce.
func refOpenDomain(t *testing.T, p interactive.Params) []proto.Estimate {
	t.Helper()
	dev, err := interactive.NewWire(p)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := interactive.NewWire(p)
	if err != nil {
		t.Fatal(err)
	}
	for {
		rs := srv.RoundState()
		if rs.Done {
			break
		}
		if err := dev.SetRoundState(rs); err != nil {
			t.Fatal(err)
		}
		if err := srv.AbsorbBatch(openReports(t, dev, p, rs.Round)); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.AdvanceRound(); err != nil {
			t.Fatal(err)
		}
	}
	est, err := srv.Identify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestRoundDrivesOverWire runs a full PEM discovery against the generic
// TCP server: the driver reads each round's broadcast, the device fleet
// reports against it, and AdvanceRound commits the transition — first over
// one-shot connections, then over a pipelined IngestConn session — and the
// final estimates must be bit-identical to the in-process reference.
func TestRoundDrivesOverWire(t *testing.T) {
	p := pemParams(7)
	ref := refOpenDomain(t, p)
	ctx := context.Background()

	agg, err := interactive.NewWire(p)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewGenericServer(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dev, err := interactive.NewWire(p)
	if err != nil {
		t.Fatal(err)
	}

	ic, err := DialIngest(ctx, srv.Addr(), proto.IDPEM)
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()

	rs, err := RequestRoundContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	advanced := 0
	for !rs.Done {
		if rs.Rounds != 4 || len(rs.Candidates) == 0 {
			t.Fatalf("round %d broadcast = %+v", rs.Round, rs)
		}
		if err := dev.SetRoundState(rs); err != nil {
			t.Fatal(err)
		}
		if err := SendWireBatch(ctx, srv.Addr(), openReports(t, dev, p, rs.Round)); err != nil {
			t.Fatal(err)
		}
		// Alternate the one-shot and pipelined clients so both reply paths
		// stay covered.
		if rs.Round%2 == 0 {
			rs, err = AdvanceRoundContext(ctx, srv.Addr())
		} else {
			rs, err = ic.AdvanceRound(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
		advanced++
		if advanced > 16 {
			t.Fatal("round protocol never reached Done")
		}
	}
	if got, _ := ic.Round(ctx); !got.Done {
		t.Fatalf("pipelined Round after completion = %+v, want Done", got)
	}
	if n := srv.Metrics().roundsAdvanced.Load(); int(n) != advanced {
		t.Fatalf("rounds_advanced_total = %d, want %d", n, advanced)
	}
	est, err := RequestIdentifyContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	assertSameEstimates(t, est, ref)
	if !bytes.Equal(est[0].Item, []byte{0x12, 0x34}) {
		t.Fatalf("top estimate %x, want the planted heavy 1234", est[0].Item)
	}
}

// TestRoundRejectsNonInteractive: single-round protocols must answer the
// round commands with a textual ERR the client relays, and count the
// rejection.
func TestRoundRejectsNonInteractive(t *testing.T) {
	srv := ingestServer(t, 99)
	if _, err := RequestRoundContext(context.Background(), srv.Addr()); err == nil || !strings.Contains(err.Error(), "round") {
		t.Fatalf("RequestRoundContext on a tree server = %v, want a relayed ERR", err)
	}
	if _, err := AdvanceRoundContext(context.Background(), srv.Addr()); err == nil {
		t.Fatal("AdvanceRoundContext on a tree server succeeded")
	}
	if n := srv.Metrics().roundErrors.Load(); n != 2 {
		t.Fatalf("round_errors_total = %d, want 2", n)
	}
}

// TestRoundMetricsExposition: the per-round gauges ride /metrics and the
// round keys ride /healthz while a discovery is in flight.
func TestRoundMetricsExposition(t *testing.T) {
	p := pemParams(11)
	agg, err := interactive.NewWire(p)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewGenericServer(agg, "127.0.0.1:0", WithMetricsAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dev, err := interactive.NewWire(p)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RequestRoundContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetRoundState(rs); err != nil {
		t.Fatal(err)
	}
	if err := SendWireBatch(context.Background(), srv.Addr(), openReports(t, dev, p, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := AdvanceRoundContext(context.Background(), srv.Addr()); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.MetricsAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		`ldphh_round{protocol="pem"} 1`,
		`ldphh_rounds{protocol="pem"} 4`,
		`ldphh_round_candidates{protocol="pem"}`,
		`ldphh_round_group_size{protocol="pem"} 0`,
		`ldphh_round_done{protocol="pem"} 0`,
		`ldphh_rounds_advanced_total{protocol="pem"} 1`,
		`ldphh_round_errors_total{protocol="pem"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	healthz := get("/healthz")
	for _, want := range []string{`"round":1`, `"rounds":4`, `"round_candidates":`, `"round_group_size":0`, `"round_done":false`} {
		if !strings.Contains(healthz, want) {
			t.Errorf("/healthz missing %s: %s", want, healthz)
		}
	}
}

// TestRoundCrashRecoveryEquivalence is the interactive extension of the
// crash-equivalence suite: the round-transition checkpoint plus ack-coupled
// mid-round checkpoints must let a killed server resume an in-flight
// discovery — same open round, same candidate broadcast, same group tally —
// and finish with estimates bit-identical to an uninterrupted run.
func TestRoundCrashRecoveryEquivalence(t *testing.T) {
	p := pemParams(9)
	ref := refOpenDomain(t, p)
	ctx := context.Background()
	dir := t.TempDir()
	opts := []ServerOption{
		WithCheckpointDir(dir),
		WithCheckpointEvery(1), // every batch ack is durable
		WithCheckpointInterval(0),
		WithCheckpointRetain(4),
	}

	dev, err := interactive.NewWire(p)
	if err != nil {
		t.Fatal(err)
	}
	agg1, err := interactive.NewWire(p)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := NewGenericServer(agg1, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}

	// Round 0 end to end, then commit the transition (handleRound persists
	// it before replying).
	rs, err := RequestRoundContext(ctx, srv1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetRoundState(rs); err != nil {
		t.Fatal(err)
	}
	if err := SendWireBatch(ctx, srv1.Addr(), openReports(t, dev, p, 0)); err != nil {
		t.Fatal(err)
	}
	rs, err = AdvanceRoundContext(ctx, srv1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Round != 1 || rs.Done {
		t.Fatalf("after one advance the broadcast is %+v, want open round 1", rs)
	}
	if err := dev.SetRoundState(rs); err != nil {
		t.Fatal(err)
	}

	// Half of round 1, durably acked, then kill the server: the listener is
	// torn out and the in-memory state discarded, exactly what kill -9
	// leaves behind.
	round1 := openReports(t, dev, p, 1)
	half := len(round1) / 2
	if err := SendWireBatch(ctx, srv1.Addr(), round1[:half]); err != nil {
		t.Fatal(err)
	}
	srv1.ln.Close()

	agg2, err := interactive.NewWire(p)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewGenericServer(agg2, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	resumed, err := RequestRoundContext(ctx, srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Round != 1 || resumed.Done {
		t.Fatalf("recovered broadcast %+v, want open round 1", resumed)
	}
	if resumed.GroupReports != half {
		t.Fatalf("recovered round holds %d reports, want the durably acked %d", resumed.GroupReports, half)
	}
	if len(resumed.Candidates) != len(rs.Candidates) {
		t.Fatalf("recovered candidate set has %d entries, want %d", len(resumed.Candidates), len(rs.Candidates))
	}
	for i := range resumed.Candidates {
		if !bytes.Equal(resumed.Candidates[i], rs.Candidates[i]) {
			t.Fatalf("recovered candidate %d = %x, want %x", i, resumed.Candidates[i], rs.Candidates[i])
		}
	}

	// Finish the discovery on the recovered server: the rest of round 1,
	// then every remaining round.
	if err := SendWireBatch(ctx, srv2.Addr(), round1[half:]); err != nil {
		t.Fatal(err)
	}
	rs, err = AdvanceRoundContext(ctx, srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for !rs.Done {
		if err := dev.SetRoundState(rs); err != nil {
			t.Fatal(err)
		}
		if err := SendWireBatch(ctx, srv2.Addr(), openReports(t, dev, p, rs.Round)); err != nil {
			t.Fatal(err)
		}
		rs, err = AdvanceRoundContext(ctx, srv2.Addr())
		if err != nil {
			t.Fatal(err)
		}
	}
	est, err := RequestIdentifyContext(ctx, srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	assertSameEstimates(t, est, ref)
}
