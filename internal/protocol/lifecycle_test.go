package protocol

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ldphh/internal/checkpoint"
	"ldphh/internal/core"
	"ldphh/internal/proto"
)

// TestCloseConcurrent is the double-close regression: Close used to guard
// the closed-channel close with a bare select, so two concurrent callers
// could both take the default branch and both close the channel — a
// panic. Every caller must now drain and report the same result. Run
// under -race (the CI recovery job does).
func TestCloseConcurrent(t *testing.T) {
	_, agg := acceptAgg(t)
	srv, err := NewGenericServer(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = srv.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent Close %d: %v", i, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close after Close: %v", err)
	}
}

// pipeAddr satisfies net.Addr for the in-memory listener.
type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeListener hands pre-made net.Pipe server ends to the accept loop, so
// a test controls both halves of a connection with real blocking-write
// semantics (a pipe write blocks until the peer reads — exactly the
// stuck-peer behavior TCP shows once buffers fill).
type pipeListener struct {
	conns     chan net.Conn
	done      chan struct{}
	closeOnce sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.closeOnce.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// TestErrReplyDeadlineUnblocksClose is the stuck-ERR-reply regression: the
// best-effort ERR write on a failing connection had no deadline, so a peer
// that triggered an error and then stopped reading pinned the handler
// goroutine — and with it Close, which waits on the handler waitgroup —
// indefinitely. With the write deadline, Close returns promptly.
func TestErrReplyDeadlineUnblocksClose(t *testing.T) {
	saved := errReplyTimeout
	errReplyTimeout = 100 * time.Millisecond
	defer func() { errReplyTimeout = saved }()

	_, agg := acceptAgg(t)
	ln := newPipeListener()
	srv, err := ServeListener(agg, ln)
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	ln.conns <- server
	// An unknown protocol byte makes the handler fail and attempt the ERR
	// reply; the client then never reads, so the pipe write can only be
	// released by the deadline.
	if _, err := client.Write([]byte{0xee}); err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged behind the ERR reply to a peer that stopped reading")
	}
}

// blockingIdentifyAgg wraps a real aggregator but parks Identify until its
// context is cancelled — the stand-in for a reconstruction mid-flight when
// the requesting client disconnects.
type blockingIdentifyAgg struct {
	proto.Aggregator
	started chan struct{}
}

func (a *blockingIdentifyAgg) Identify(ctx context.Context) ([]proto.Estimate, error) {
	close(a.started)
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestDisconnectCancelsIdentify is the abandoned-reconstruction
// regression: handleIdentify ran the aggregator under
// context.Background(), so a client that hung up left the O~(n)
// reconstruction running with nowhere to send the answer. The handler now
// derives a context cancelled on connection close and routes it into
// Identify.
func TestDisconnectCancelsIdentify(t *testing.T) {
	_, inner := acceptAgg(t)
	agg := &blockingIdentifyAgg{Aggregator: inner, started: make(chan struct{})}
	srv, err := NewGenericServer(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{proto.IDPrivateExpanderSketch, cmdIdentify}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-agg.started:
	case <-time.After(5 * time.Second):
		t.Fatal("Identify never started")
	}
	// Hang up mid-identification; the watcher must cancel the context and
	// let the handler (and later Close) finish.
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().identifyErrors.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Identify still running after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.Metrics().identifies.Load(); n != 1 {
		t.Fatalf("identify_total = %d, want 1", n)
	}
}

// TestIdentifyStillWorksWithWatcher: the disconnect watcher must not break
// a well-behaved client that holds the connection open (without writing or
// half-closing) until the reply lands.
func TestIdentifyStillWorksWithWatcher(t *testing.T) {
	srv := ingestServer(t, 2718)
	if err := SendWireBatch(context.Background(), srv.Addr(), wireReports(t, 2718, 4000)); err != nil {
		t.Fatal(err)
	}
	est, err := RequestIdentifyContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(est) == 0 {
		t.Fatal("identify returned nothing over a planted population")
	}
	if srv.Metrics().identifies.Load() != 1 || srv.Metrics().identifyErrors.Load() != 0 {
		t.Fatalf("identify metrics = (%d total, %d errors), want (1, 0)",
			srv.Metrics().identifies.Load(), srv.Metrics().identifyErrors.Load())
	}
}

// recoverySlices cuts a wire-report population into equal mega-batches.
func recoverySlices(wrs []proto.WireReport, per int) [][]proto.WireReport {
	var out [][]proto.WireReport
	for lo := 0; lo < len(wrs); lo += per {
		out = append(out, wrs[lo:min(lo+per, len(wrs))])
	}
	return out
}

// newestCheckpointFile returns the live checkpoint file with the highest
// sequence number.
func newestCheckpointFile(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.lckf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint files in %s (err=%v)", dir, err)
	}
	sort.Strings(files) // %016x sequence numbers sort lexically
	return files[len(files)-1]
}

// TestCrashRecoveryEquivalence is the tentpole's acceptance suite: a
// server checkpointing under the ack-coupled policy is killed mid-ingest
// (its state discarded, as under kill -9), a fresh server over the same
// directory restores the newest checkpoint, the sender replays only the
// unacknowledged batches, and the final Identify is bit-identical to an
// uninterrupted run of the same population. The torn-file variant corrupts
// the newest checkpoint first and recovers through the fallback.
func TestCrashRecoveryEquivalence(t *testing.T) {
	const (
		seed  = 1337
		n     = 6000
		per   = 1500 // mega-batch size == WithCheckpointEvery => durable-before-ack
		acked = 3    // batches delivered (and durably acked) before the crash
	)
	params := treeParams(seed)
	wrs := wireReports(t, seed, n)
	batches := recoverySlices(wrs, per)
	ctx := context.Background()

	// Uninterrupted reference run.
	ref := func() []proto.Estimate {
		srv := ingestServer(t, seed)
		if err := SendWireBatch(ctx, srv.Addr(), wrs); err != nil {
			t.Fatal(err)
		}
		est, err := RequestIdentifyContext(ctx, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return est
	}()

	scenarios := map[string]func(t *testing.T, dir string){
		"clean": func(t *testing.T, dir string) {},
		"torn-newest": func(t *testing.T, dir string) {
			// Chop the newest checkpoint as a torn write would; recovery must
			// fall back to the previous intact file and the sender replays
			// everything past it.
			path := newestCheckpointFile(t, dir)
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf[:len(buf)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, sabotage := range scenarios {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := []ServerOption{
				WithCheckpointDir(dir),
				WithCheckpointEvery(per),
				WithCheckpointInterval(0), // only ack-coupled checkpoints: deterministic coverage
				WithCheckpointRetain(4),
			}
			agg1, err := core.NewPESWire(params)
			if err != nil {
				t.Fatal(err)
			}
			srv1, err := NewGenericServer(agg1, "127.0.0.1:0", opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches[:acked] {
				if err := SendWireBatch(ctx, srv1.Addr(), b); err != nil {
					t.Fatal(err)
				}
			}
			// Crash: tear the listener out from under the server and discard
			// its in-memory state without any graceful-shutdown checkpoint —
			// everything a kill -9 leaves behind is the checkpoint directory.
			srv1.ln.Close()

			sabotage(t, dir)
			durable := acked * per
			if name == "torn-newest" {
				durable -= per // the newest (torn) file covered one more batch
			}

			agg2, err := core.NewPESWire(params)
			if err != nil {
				t.Fatal(err)
			}
			srv2, err := NewGenericServer(agg2, "127.0.0.1:0", opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.Close()
			if got := srv2.Absorbed(); got != durable {
				t.Fatalf("recovered server holds %d reports, want %d (the durably acked prefix)", got, durable)
			}
			if got := srv2.Metrics().recoveredReports.Load(); got != int64(durable) {
				t.Fatalf("recovered_reports metric = %d, want %d", got, durable)
			}
			// Replay everything past the durable prefix — in production the
			// sender replays the batches the crashed server never acked.
			for _, b := range batches[durable/per:] {
				if err := SendWireBatch(ctx, srv2.Addr(), b); err != nil {
					t.Fatal(err)
				}
			}
			if got := srv2.Absorbed(); got != n {
				t.Fatalf("after replay the server holds %d reports, want %d", got, n)
			}
			est, err := RequestIdentifyContext(ctx, srv2.Addr())
			if err != nil {
				t.Fatal(err)
			}
			assertSameEstimates(t, est, ref)
		})
	}
}

// TestGracefulShutdownCheckpointsTail: a drain must leave the whole round
// on disk even when no ack-coupled or periodic checkpoint covered the
// tail, so a deliberate restart (deploy, migration) loses nothing.
func TestGracefulShutdownCheckpointsTail(t *testing.T) {
	const seed, n = 555, 2000
	params := treeParams(seed)
	wrs := wireReports(t, seed, n)
	dir := t.TempDir()
	ctx := context.Background()

	agg1, err := core.NewPESWire(params)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := NewGenericServer(agg1, "127.0.0.1:0",
		WithCheckpointDir(dir), WithCheckpointInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := SendWireBatch(ctx, srv1.Addr(), wrs); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	agg2, err := core.NewPESWire(params)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewGenericServer(agg2, "127.0.0.1:0", WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.Absorbed(); got != n {
		t.Fatalf("restored server holds %d reports, want %d (final checkpoint must cover the tail)", got, n)
	}

	// Bit-identical continuation: identify on the restored server matches a
	// never-restarted aggregator over the same reports.
	refAgg, err := core.NewPESWire(params)
	if err != nil {
		t.Fatal(err)
	}
	if err := refAgg.AbsorbBatch(wrs); err != nil {
		t.Fatal(err)
	}
	want, err := refAgg.Identify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RequestIdentifyContext(ctx, srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	assertSameEstimates(t, got, want)
}

// TestGracefulShutdownCheckpointsInProcessAbsorbs: reports absorbed in
// process, after the last checkpoint, are on disk after Close. Regression:
// the checkpoint lag counted only reports absorbed over the wire, so the
// final checkpoint was skipped and the restart lost them.
func TestGracefulShutdownCheckpointsInProcessAbsorbs(t *testing.T) {
	const seed, n = 556, 1000
	params := treeParams(seed)
	wrs := wireReports(t, seed, n)
	dir := t.TempDir()
	agg1, err := core.NewPESWire(params)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := NewGenericServer(agg1, "127.0.0.1:0",
		WithCheckpointDir(dir), WithCheckpointInterval(0), WithCheckpointEvery(n/2))
	if err != nil {
		t.Fatal(err)
	}
	if err := SendWireBatch(context.Background(), srv1.Addr(), wrs[:n/2]); err != nil {
		t.Fatal(err)
	}
	if err := agg1.AbsorbBatch(wrs[n/2:]); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	agg2, err := core.NewPESWire(params)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewGenericServer(agg2, "127.0.0.1:0", WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.Absorbed(); got != n {
		t.Fatalf("restored server holds %d reports, want %d", got, n)
	}
}

// TestRecoveryRejectsForeignFingerprint: restarting over a checkpoint
// directory with different protocol parameters must fail construction
// loudly instead of silently starting a fresh round over stale files.
func TestRecoveryRejectsForeignFingerprint(t *testing.T) {
	dir := t.TempDir()
	params := treeParams(31)
	agg1, err := core.NewPESWire(params)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := NewGenericServer(agg1, "127.0.0.1:0", WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := SendWireBatch(context.Background(), srv1.Addr(), wireReports(t, 31, 300)); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	other := params
	other.Seed = params.Seed + 1 // different public randomness => different fingerprint
	agg2, err := core.NewPESWire(other)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewGenericServer(agg2, "127.0.0.1:0", WithCheckpointDir(dir))
	if !errors.Is(err, checkpoint.ErrFingerprintMismatch) {
		t.Fatalf("restart under different params = %v, want ErrFingerprintMismatch", err)
	}
}

// TestCheckpointsRequireMergeable: checkpointing needs the snapshot
// capability; a non-Mergeable aggregator must be rejected at construction,
// not discovered at the first save.
func TestCheckpointsRequireMergeable(t *testing.T) {
	agg := unsnapshottableAgg{}
	_, err := NewGenericServer(agg, "127.0.0.1:0", WithCheckpointDir(t.TempDir()))
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("checkpointing a non-Mergeable aggregator = %v, want a capability error", err)
	}
}

// TestPeriodicCheckpointLoop: with a short interval and no ack coupling,
// the timer alone must persist absorbed state.
func TestPeriodicCheckpointLoop(t *testing.T) {
	dir := t.TempDir()
	params := treeParams(91)
	agg, err := core.NewPESWire(params)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewGenericServer(agg, "127.0.0.1:0",
		WithCheckpointDir(dir), WithCheckpointInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := SendWireBatch(context.Background(), srv.Addr(), wireReports(t, 91, 500)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().checkpoints.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoint never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lag := srv.Metrics().CheckpointLag(); lag != 0 {
		t.Fatalf("checkpoint lag = %d after a periodic save of a quiesced server", lag)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPeriodicCheckpointQuietAfterIdentify: once a TCP Identify has
// closed the round, the periodic loop has nothing left to save. The
// adapter's refusal is no checkpoint failure: it must not be counted or
// surface as last_checkpoint_error on every tick, and Close must succeed.
func TestPeriodicCheckpointQuietAfterIdentify(t *testing.T) {
	const interval = 20 * time.Millisecond
	ctx := context.Background()
	agg, err := core.NewPESWire(treeParams(93))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewGenericServer(agg, "127.0.0.1:0",
		WithCheckpointDir(t.TempDir()), WithCheckpointInterval(interval))
	if err != nil {
		t.Fatal(err)
	}
	// Hold the checkpoint lock until the round is closed and ticks have
	// fired, so the first periodic checkpoint is sure to meet a closed round
	// with the batch still uncovered.
	srv.ckptMu.Lock()
	if err := SendWireBatch(ctx, srv.Addr(), wireReports(t, 93, 2000)); err != nil {
		srv.ckptMu.Unlock()
		t.Fatal(err)
	}
	if _, err := RequestIdentifyContext(ctx, srv.Addr()); err != nil {
		srv.ckptMu.Unlock()
		t.Fatal(err)
	}
	time.Sleep(3 * interval)
	srv.ckptMu.Unlock()
	time.Sleep(5 * interval) // at least three more ticks
	m := srv.Metrics()
	if n := m.checkpointErrors.Load(); n != 0 {
		t.Errorf("%d checkpoint errors after Identify closed the round (last: %q)", n, m.lastCkptErr.Load())
	}
	if last := m.lastCkptErr.Load().(string); last != "" {
		t.Errorf("last_checkpoint_error = %q, want empty", last)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after Identify = %v, want nil", err)
	}
}

// TestGracefulShutdownAfterInProcessIdentify: an Identify called in
// process on a served aggregator closes the round just as one over TCP
// does, so the shutdown checkpoint has nothing left to save and Close
// returns nil.
func TestGracefulShutdownAfterInProcessIdentify(t *testing.T) {
	ctx := context.Background()
	agg, err := core.NewPESWire(treeParams(95))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewGenericServer(agg, "127.0.0.1:0",
		WithCheckpointDir(t.TempDir()), WithCheckpointInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := SendWireBatch(ctx, srv.Addr(), wireReports(t, 95, 2000)); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Identify(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after an in-process Identify = %v, want nil", err)
	}
	if n := srv.Metrics().checkpointErrors.Load(); n != 0 {
		t.Fatalf("%d checkpoint errors after Identify closed the round", n)
	}
}

// TestMetricsEndpoints exercises the operability sidecar end to end:
// /healthz JSON while serving, Prometheus text on /metrics, and the
// sidecar's teardown with the server.
func TestMetricsEndpoints(t *testing.T) {
	dir := t.TempDir()
	params := treeParams(64)
	agg, err := core.NewPESWire(params)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewGenericServer(agg, "127.0.0.1:0",
		WithMetricsAddr("127.0.0.1:0"), WithCheckpointDir(dir), WithCheckpointEvery(400))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty with the sidecar configured")
	}
	if err := SendWireBatch(context.Background(), srv.Addr(), wireReports(t, 64, 400)); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d: %s", code, body)
	}
	for _, want := range []string{`"status":"ok"`, `"protocol":"pes"`, `"absorbed":400`, `"checkpoint_seq":1`} {
		if !strings.Contains(body, want) {
			t.Errorf("/healthz %s missing %s", body, want)
		}
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`ldphh_reports_absorbed_total{protocol="pes"} 400`,
		`ldphh_reports_resident{protocol="pes"} 400`,
		`ldphh_batches_absorbed_total{protocol="pes"} 1`,
		`ldphh_checkpoints_total{protocol="pes"} 1`,
		`ldphh_checkpoint_lag_reports{protocol="pes"} 0`,
		`ldphh_up{protocol="pes"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("metrics sidecar still serving after Close")
	}
}

// unsnapshottableAgg is a registered-protocol aggregator without the
// Mergeable capability (Bitstogram's ID, none of its methods needed here).
type unsnapshottableAgg struct{}

func (unsnapshottableAgg) ProtocolID() byte                     { return proto.IDBitstogram }
func (unsnapshottableAgg) Absorb(proto.WireReport) error        { return nil }
func (unsnapshottableAgg) AbsorbBatch([]proto.WireReport) error { return nil }
func (unsnapshottableAgg) Identify(context.Context) ([]proto.Estimate, error) {
	return nil, fmt.Errorf("not implemented")
}
func (unsnapshottableAgg) TotalReports() int   { return 0 }
func (unsnapshottableAgg) SketchBytes() int    { return 0 }
func (unsnapshottableAgg) BytesPerReport() int { return 1 }
