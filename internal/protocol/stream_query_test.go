package protocol

import (
	"bytes"
	"context"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"testing"

	"ldphh/internal/core"
	"ldphh/internal/proto"
	"ldphh/internal/stream"
)

// streamPair builds a device-side and a server-side streaming adapter from
// identical parameters.
func streamPair(t *testing.T) (*stream.Wire, *stream.Wire) {
	t.Helper()
	mk := func() *stream.Wire {
		w, err := stream.NewWire(stream.Params{
			Kind: stream.BasicHG, Eps: 16, Windows: 4, K: 16, Domain: 64,
			WindowSize: 1500, WarmupWindows: 0, N: 6000, Seed: 77,
		}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	return mk(), mk()
}

// streamReports derives n wire reports with 40% planted on ordinal 1.
func streamReports(t *testing.T, dev *stream.Wire, n, offset int) []proto.WireReport {
	t.Helper()
	rng := rand.New(rand.NewPCG(uint64(offset), 5))
	out := make([]proto.WireReport, n)
	for i := range out {
		item := plantedOrdinals(2, 32)(offset + i)
		wr, err := dev.Report(item, offset+i, rng)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = wr
	}
	return out
}

// TestQueryTopKOverTCP pins the continuous-query command end to end: a
// monitor interleaves mega-batch ingest and top-k queries on one pipelined
// connection, the answers track the growing stream without retiring the
// round, and the query counters advance.
func TestQueryTopKOverTCP(t *testing.T) {
	dev, agg := streamPair(t)
	srv, err := NewGenericServer(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	conn, err := DialIngest(ctx, srv.Addr(), proto.IDStreamHG)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	heavy := ordItem(1, 2)
	if err := conn.SendBatch(ctx, streamReports(t, dev, 3000, 0)); err != nil {
		t.Fatal(err)
	}
	mid, err := conn.QueryTopK(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) == 0 || !bytes.Equal(mid[0].Item, heavy) {
		t.Fatalf("mid-stream top estimate %+v, want heavy item %x", mid, heavy)
	}

	// The query did not retire the round: ingest continues on the same
	// connection and the heavy estimate grows.
	if err := conn.SendBatch(ctx, streamReports(t, dev, 3000, 3000)); err != nil {
		t.Fatal(err)
	}
	final, err := conn.QueryTopK(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final[0].Item, heavy) {
		t.Fatalf("final top estimate %+v, want heavy item %x", final[0], heavy)
	}
	if final[0].Count <= mid[0].Count {
		t.Errorf("heavy estimate did not grow across ingest: %.0f then %.0f", mid[0].Count, final[0].Count)
	}
	if got := srv.Absorbed(); got != 6000 {
		t.Fatalf("server absorbed %d of 6000 reports", got)
	}

	// Explicit k truncates; the one-shot client works against the same
	// server.
	one, err := QueryTopKContext(ctx, srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || !bytes.Equal(one[0].Item, heavy) {
		t.Fatalf("QueryTopK(1) = %+v, want only the heavy item", one)
	}

	if got := srv.Metrics().topkQueries.Load(); got != 3 {
		t.Errorf("topk query counter = %d, want 3", got)
	}
	if got := srv.Metrics().topkQueryErrors.Load(); got != 0 {
		t.Errorf("topk error counter = %d, want 0", got)
	}

	// Identify still closes the round with the usual semantics.
	est, err := RequestIdentifyContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(est[0].Item, heavy) {
		t.Fatalf("Identify top %+v, want heavy item %x", est[0], heavy)
	}
}

// TestQueryTopKUnsupportedProtocol pins the capability gate: a batch
// aggregator answers a top-k query with ERR (no hang, no panic) and the
// error counter advances.
func TestQueryTopKUnsupportedProtocol(t *testing.T) {
	agg, err := core.NewPESWire(core.Params{Eps: 2, N: 1000, ItemBytes: 4, Y: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewGenericServer(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := QueryTopKContext(context.Background(), srv.Addr(), 4); err == nil {
		t.Fatal("batch protocol answered a continuous top-k query")
	} else if !strings.Contains(err.Error(), "continuous") {
		t.Fatalf("unexpected rejection: %v", err)
	}
	if got := srv.Metrics().topkQueryErrors.Load(); got != 1 {
		t.Errorf("topk error counter = %d, want 1", got)
	}
	if got := srv.Metrics().topkQueries.Load(); got != 0 {
		t.Errorf("topk query counter = %d, want 0", got)
	}
}

// TestFreshServerCheckpointMetrics is the negative-sentinel regression: a
// server that has never checkpointed (no checkpoint dir at all) must not
// emit a negative checkpoint age anywhere — the Prometheus rendering omits
// the age series and flags the state via ldphh_checkpoint_taken 0, and the
// /healthz JSON reports a NaN-safe zero age with an explicit false flag.
func TestFreshServerCheckpointMetrics(t *testing.T) {
	dev, agg := streamPair(t)
	srv, err := NewGenericServer(agg, "127.0.0.1:0", WithMetricsAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if age := srv.Metrics().CheckpointAge(); age >= 0 {
		t.Fatalf("fresh server CheckpointAge = %v, want the negative sentinel", age)
	}
	// A little traffic plus one query so the streaming series have state.
	ctx := context.Background()
	if err := SendWireBatch(ctx, srv.Addr(), streamReports(t, dev, 2000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := QueryTopKContext(ctx, srv.Addr(), 4); err != nil {
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

	prom := get("/metrics")
	if strings.Contains(prom, "ldphh_checkpoint_age_seconds") {
		t.Error("/metrics emits a checkpoint age series for a never-checkpointed server")
	}
	for _, want := range []string{
		`ldphh_checkpoint_taken{protocol="streamhg"} 0`,
		`ldphh_topk_queries_total{protocol="streamhg"} 1`,
		`ldphh_stream_window{protocol="streamhg"} 1`,
		`ldphh_stream_windows{protocol="streamhg"} 4`,
		`ldphh_stream_warmup{protocol="streamhg"} 0`,
		`ldphh_stream_evictions_total{protocol="streamhg"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(prom, "} -") {
		t.Error("/metrics emits a negative sample on a fresh server")
	}

	health := get("/healthz")
	for _, want := range []string{
		`"checkpoint_taken":false`,
		`"checkpoint_age_seconds":0.000`,
		`"stream_window":1`,
		`"stream_windows":4`,
		`"stream_warmup":false`,
		`"topk_queries":1`,
	} {
		if !strings.Contains(health, want) {
			t.Errorf("/healthz %s missing %s", health, want)
		}
	}
	if strings.Contains(health, "-1") {
		t.Errorf("/healthz leaks the -1 sentinel: %s", health)
	}

	// And once a checkpoint exists the flag flips and the age appears —
	// the positive half of the regression.
	srv.Metrics().noteCheckpoint(1, srv.Metrics().startNano, 10, 0)
	prom = get("/metrics")
	for _, want := range []string{
		`ldphh_checkpoint_taken{protocol="streamhg"} 1`,
		`ldphh_checkpoint_age_seconds{protocol="streamhg"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics after checkpoint missing %q", want)
		}
	}
	if !strings.Contains(get("/healthz"), `"checkpoint_taken":true`) {
		t.Error("/healthz still reports checkpoint_taken false after a checkpoint")
	}
}
