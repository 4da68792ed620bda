package protocol

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"ldphh/internal/core"
	"ldphh/internal/interactive"
	"ldphh/internal/proto"
)

// ingestServer builds a fresh PES server for the treeParams(seed) round;
// wireReports is that round's deterministic wire-report population.
func ingestServer(t testing.TB, seed uint64) *Server {
	t.Helper()
	return pesServer(t, treeParams(seed))
}

func wireReports(t testing.TB, seed uint64, n int) []proto.WireReport {
	t.Helper()
	return encodeReports(t, treeReports(t, treeParams(seed), n))
}

// TestMegaBatchMatchesInProcess: the same report multiset delivered as one
// cmdReportBatch command and as a pipelined IngestConn session (batches
// crossing the window boundary within a command and the command boundary)
// must produce the state of absorbing the reports in process — same
// TotalReports, bit-identical Identify estimates.
func TestMegaBatchMatchesInProcess(t *testing.T) {
	const n = 9000
	const seed = 4242
	wrs := wireReports(t, seed, n)
	ctx := context.Background()

	ref, err := core.NewPESWire(treeParams(seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range wrs {
		if err := ref.Absorb(wr); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Identify(ctx)
	if err != nil {
		t.Fatal(err)
	}

	deliver := map[string]func(addr string) error{
		"one-batch": func(addr string) error {
			return SendWireBatch(ctx, addr, wrs)
		},
		"pipelined": func(addr string) error {
			c, err := DialIngest(ctx, addr, proto.IDPrivateExpanderSketch)
			if err != nil {
				return err
			}
			defer c.Close()
			// 5000 crosses windowFrames within one command; the rest crosses
			// the command boundary.
			for lo := 0; lo < len(wrs); lo += 5000 {
				hi := min(lo+5000, len(wrs))
				if err := c.SendBatch(ctx, wrs[lo:hi]); err != nil {
					return err
				}
			}
			return nil
		},
	}
	for name, send := range deliver {
		srv := ingestServer(t, seed)
		if err := send(srv.Addr()); err != nil {
			t.Fatalf("%s delivery: %v", name, err)
		}
		if got := srv.Absorbed(); got != ref.TotalReports() {
			t.Fatalf("%s delivery absorbed %d, in process %d", name, got, ref.TotalReports())
		}
		got, err := RequestIdentifyContext(ctx, srv.Addr())
		if err != nil {
			t.Fatalf("%s identify: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s identified %d items, in process %d", name, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Item, want[i].Item) ||
				math.Float64bits(got[i].Count) != math.Float64bits(want[i].Count) {
				t.Errorf("%s estimate %d = (%x, %v), in process = (%x, %v)", name, i,
					got[i].Item, got[i].Count, want[i].Item, want[i].Count)
			}
		}
	}
}

// TestIngestConnPipelinesBatches: one connection carries many mega-batches
// back to back — connection reuse is the point of the framing — and the
// server's count is exact afterwards.
func TestIngestConnPipelinesBatches(t *testing.T) {
	const batches = 16
	const per = 750
	wrs := wireReports(t, 77, batches*per)
	srv := ingestServer(t, 77)
	ctx := context.Background()
	c, err := DialIngest(ctx, srv.Addr(), proto.IDPrivateExpanderSketch)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for b := 0; b < batches; b++ {
		if err := c.SendBatch(ctx, wrs[b*per:(b+1)*per]); err != nil {
			t.Fatalf("batch %d on the shared connection: %v", b, err)
		}
	}
	if got := srv.Absorbed(); got != batches*per {
		t.Fatalf("absorbed %d of %d across a pipelined connection", got, batches*per)
	}
	if _, err := RequestIdentifyContext(ctx, srv.Addr()); err != nil {
		t.Fatalf("identify after pipelined ingest: %v", err)
	}
}

// TestBatchFramingNeedsNoHalfClose: the length-prefixed mega-batch framing
// must work over a connection with no CloseWrite at all (net.Pipe) — the
// count header, not an EOF, ends each batch.
func TestBatchFramingNeedsNoHalfClose(t *testing.T) {
	srv := ingestServer(t, 99)
	wrs := wireReports(t, 99, 600)

	cli, srvConn := net.Pipe()
	defer cli.Close()
	handleDone := make(chan struct{})
	go func() {
		defer close(handleDone)
		srv.handle(srvConn) //nolint:errcheck // ends with the pipe close
		srvConn.Close()
	}()

	c := &IngestConn{
		conn:     cli,
		bw:       bufio.NewWriterSize(cli, 1<<16),
		br:       bufio.NewReader(cli),
		id:       proto.IDPrivateExpanderSketch,
		frameLen: 2 + core.ReportPayloadBytes,
	}
	if err := c.bw.WriteByte(c.id); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.SendBatch(ctx, wrs[:300]); err != nil {
		t.Fatalf("batch over a pipe (no CloseWrite): %v", err)
	}
	if err := c.SendBatch(ctx, wrs[300:]); err != nil {
		t.Fatalf("second batch over a pipe: %v", err)
	}
	if got := srv.Absorbed(); got != 600 {
		t.Fatalf("absorbed %d of 600 over the pipe", got)
	}
	cli.Close()
	select {
	case <-handleDone:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not exit after the pipe closed")
	}
}

// TestBatchRejectsOversizedCount: a hostile count header beyond the batch
// cap is rejected with an ERR reply before any frame is read.
func TestBatchRejectsOversizedCount(t *testing.T) {
	srv := ingestServer(t, 55)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := make([]byte, 6)
	msg[0] = proto.IDPrivateExpanderSketch
	msg[1] = cmdReportBatch
	binary.BigEndian.PutUint32(msg[2:], maxBatchFrames+1)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, _ := io.ReadAll(conn)
	if !strings.Contains(string(reply), "cap") {
		t.Fatalf("oversized batch reply %q does not reject the frame cap", reply)
	}
	if got := srv.Absorbed(); got != 0 {
		t.Fatalf("oversized batch absorbed %d reports", got)
	}
}

// poisonVersion returns a copy of wr with a corrupted codec version byte:
// it passes the client's protocol-ID check but fails server-side decode.
func poisonVersion(wr proto.WireReport) proto.WireReport {
	bad := append(proto.WireReport(nil), wr...)
	bad[1] ^= 0x7f
	return bad
}

// TestBatchPoisonedFrameDrained: an AbsorbBatch failure mid-command drains
// the declared remainder (its exact length is known) before the ERR reply,
// so a sender still writing never wedges, and the valid prefix keeps
// counting.
func TestBatchPoisonedFrameDrained(t *testing.T) {
	srv := ingestServer(t, 32)
	good := wireReports(t, 32, 400)
	// Poison inside the first window, with most of the batch still unsent:
	// windowFrames+ more frames follow the poison.
	wrs := make([]proto.WireReport, 0, 400+2*windowFrames)
	wrs = append(wrs, good[:300]...)
	wrs = append(wrs, poisonVersion(good[300]))
	for i := 0; i < 2*windowFrames; i++ {
		wrs = append(wrs, good[i%400])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := SendWireBatch(ctx, srv.Addr(), wrs)
	if err == nil {
		t.Fatal("poisoned batch accepted")
	}
	if !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("client saw %q instead of the server's ERR reply", err)
	}
	if got := srv.Absorbed(); got != 300 {
		t.Fatalf("absorbed %d reports, want the 300-frame valid prefix", got)
	}
	if got := srv.Metrics().ReportsAbsorbed(); got != 300 {
		t.Fatalf("ReportsAbsorbed = %d, want the 300-frame valid prefix", got)
	}
	if err := SendWireBatch(ctx, srv.Addr(), good); err != nil {
		t.Fatalf("server wedged after a poisoned batch: %v", err)
	}
}

// mergeRacer is a PES aggregator whose MergeSnapshot first runs race: a
// deterministic stand-in for a report batch that another connection
// absorbs while a snapshot merge is in flight.
type mergeRacer struct {
	*core.PESWire
	race func()
}

func (r *mergeRacer) MergeSnapshot(buf []byte) error {
	r.race()
	return r.PESWire.MergeSnapshot(buf)
}

// TestIngestCountsMergedReportsOnce: a batch absorbed over one connection
// while another connection's snapshot merge is in flight is counted once.
// Regression: the merge handler added the aggregator's TotalReports delta
// across the merge to a server-side counter, so the racing batch was
// counted by its own handler and again by the merge.
func TestIngestCountsMergedReportsOnce(t *testing.T) {
	const seed = 61
	ctx := context.Background()
	wrs := wireReports(t, seed, 1500)
	leaf, err := core.NewPESWire(treeParams(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := leaf.AbsorbBatch(wrs[:1000]); err != nil {
		t.Fatal(err)
	}
	snap, err := leaf.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	root, err := core.NewPESWire(treeParams(seed))
	if err != nil {
		t.Fatal(err)
	}
	agg := &mergeRacer{PESWire: root}
	srv, err := NewGenericServer(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	agg.race = func() {
		if err := SendWireBatch(ctx, srv.Addr(), wrs[1000:]); err != nil {
			t.Errorf("racing batch: %v", err)
		}
	}
	if err := PushSnapshotContext(ctx, srv.Addr(), snap); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	if got := srv.Absorbed(); got != 1500 {
		t.Fatalf("aggregator holds %d reports, want 1500", got)
	}
	if got := m.ReportsAbsorbed(); got != 1500 {
		t.Errorf("ReportsAbsorbed = %d, want 1500", got)
	}
	if got := m.CheckpointLag(); got != 1500 {
		t.Errorf("CheckpointLag = %d, want 1500", got)
	}
}

// TestSendBatchValidatesBeforeWriting: a batch with a bad report late in it
// is refused before its first byte is written, so no part of it reaches the
// aggregate and the session stays usable. Regression: SendBatch checked
// each report while writing, so a report one byte short at index 8999
// failed the call only after the client's 64 KiB flushes had delivered a
// whole 4096-frame window, which a corrected resend then counted twice.
func TestSendBatchValidatesBeforeWriting(t *testing.T) {
	const n = 9000
	srv := ingestServer(t, 34)
	wrs := wireReports(t, 34, n)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := DialIngest(ctx, srv.Addr(), proto.IDPrivateExpanderSketch)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad := append([]proto.WireReport(nil), wrs...)
	bad[n-1] = bad[n-1][:len(bad[n-1])-1]
	if err := c.SendBatch(ctx, bad); err == nil || !strings.Contains(err.Error(), "byte-frame batch") {
		t.Fatalf("batch with a short report: err = %v, want the frame-length refusal", err)
	}
	if got := srv.Absorbed(); got != 0 {
		t.Fatalf("refused batch let %d reports into the aggregate", got)
	}
	if err := c.SendBatch(ctx, wrs); err != nil {
		t.Fatalf("good batch on the same session after a refused one: %v", err)
	}
	if got := srv.Absorbed(); got != n {
		t.Fatalf("absorbed %d reports, want exactly the %d of the good batch", got, n)
	}
}

// TestBatchDecodeAllocs pins the zero-allocation contract of the
// mega-batch ingest path for every kind: one 4096-frame AbsorbBatch
// allocates nothing at the aggregator, and the server's window decode
// around it (pooled window buffers, pre-sliced frame views) adds no
// per-frame heap traffic.
func TestBatchDecodeAllocs(t *testing.T) {
	cases := append(genericCases(), interactiveAllocCase("pem", interactive.ModePEM),
		interactiveAllocCase("fedtrie", interactive.ModeFedTrie))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev, agg := tc.build(t)
			srv, err := NewGenericServer(agg, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			// One full window of frames, skipping users an interactive
			// kind's open round does not poll.
			const frames = windowFrames
			rng := testRng(5)
			wrs := make([]proto.WireReport, 0, frames)
			for u := 0; len(wrs) < frames; u++ {
				wr, err := dev.Report(tc.itemFor(u), u, rng)
				if errors.Is(err, interactive.ErrNotInRound) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				wrs = append(wrs, wr)
			}
			absorb := func() {
				if err := agg.AbsorbBatch(wrs); err != nil {
					t.Fatal(err)
				}
			}
			if got := testing.AllocsPerRun(20, absorb); got != 0 {
				t.Errorf("%d-frame AbsorbBatch allocates %.1f times, want 0", frames, got)
			}

			// The same window as a pre-encoded batch body: u32 count +
			// contiguous frames.
			var body bytes.Buffer
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], frames)
			body.Write(hdr[:])
			for _, wr := range wrs {
				body.Write(wr)
			}
			raw := body.Bytes()

			rd := bytes.NewReader(raw)
			br := bufio.NewReaderSize(rd, 1<<16)
			run := func() {
				rd.Reset(raw)
				br.Reset(rd)
				if err := srv.handleReportBatch(br); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the window pool before measuring
			perRun := testing.AllocsPerRun(20, run)
			perReport := perRun / frames
			t.Logf("%s: %.1f allocs/window, %.5f allocs/report", tc.name, perRun, perReport)
			if perReport > 0.05 {
				t.Errorf("batch decode path allocates %.4f/report (%.1f per %d-frame window), want ~0",
					perReport, perRun, frames)
			}
		})
	}
}

// interactiveAllocCase is an interactive kind's row for the allocation
// pins: device and server both hold round 0's broadcast from construction.
func interactiveAllocCase(name string, mode interactive.Mode) genericCase {
	p := pemParams(20260729)
	p.Mode = mode
	return genericCase{
		name: name,
		build: func(t *testing.T) (proto.Reporter, proto.Aggregator) {
			mk := func() *interactive.Wire {
				w, err := interactive.NewWire(p)
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			return mk(), mk()
		},
		itemFor: openItem,
	}
}

// BenchmarkIngestWire measures end-to-end delivered reports/sec of the
// mega-batch wire over real TCP: 4096-frame batches pipelined on one
// IngestConn session.
func BenchmarkIngestWire(b *testing.B) {
	srv := ingestServer(b, 17)
	wrs := wireReports(b, 17, 4096)
	ctx := context.Background()
	c, err := DialIngest(ctx, srv.Addr(), proto.IDPrivateExpanderSketch)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SendBatch(ctx, wrs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(wrs))/b.Elapsed().Seconds(), "reports/s")
}
