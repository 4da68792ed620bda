package protocol

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ldphh/internal/core"
	"ldphh/internal/proto"
	"ldphh/internal/workload"
)

func TestEndToEndOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("network round")
	}
	const n = 30000
	params := core.Params{Eps: 4, N: n, ItemBytes: 4, Y: 64, Seed: 777}
	srv := pesServer(t, params)

	dom := workload.Domain{ItemBytes: 4}
	ds, err := workload.Planted(dom, n, []float64{0.30, 0.22}, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a fleet: 4 concurrent batches of users, each over its own
	// connection (the paper's non-interactive single-message model).
	dev, err := core.NewPESWire(params)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const fleets = 4
	var wg sync.WaitGroup
	errs := make(chan error, fleets)
	for f := 0; f < fleets; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(f), 99))
			var batch []proto.WireReport
			for i := f; i < n; i += fleets {
				wr, err := dev.Report(ds.Items[i], i, rng)
				if err != nil {
					errs <- err
					return
				}
				batch = append(batch, wr)
			}
			errs <- SendWireBatch(ctx, srv.Addr(), batch)
		}(f)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Absorbed(); got != n {
		t.Fatalf("server absorbed %d of %d reports", got, n)
	}

	est, err := RequestIdentifyContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		item := dom.Item(uint64(i))
		found := false
		for _, e := range est {
			if bytes.Equal(e.Item, item) {
				found = true
				if math.Abs(e.Count-float64(ds.Count(item))) > 6000 {
					t.Errorf("item %d estimate %.0f, truth %d", i, e.Count, ds.Count(item))
				}
			}
		}
		if !found {
			t.Errorf("item %d not identified over TCP", i)
		}
	}
	// A second identify must fail: the round is closed.
	if _, err := RequestIdentifyContext(ctx, srv.Addr()); err == nil {
		t.Error("second identify accepted")
	}
}

// batchMsg frames wire reports as one cmdReportBatch command on a fresh
// connection: the PES preamble, the declared frame count, then the frames.
func batchMsg(count int, frames ...proto.WireReport) []byte {
	msg := []byte{proto.IDPrivateExpanderSketch, cmdReportBatch, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(msg[2:], uint32(count))
	for _, f := range frames {
		msg = append(msg, f...)
	}
	return msg
}

func TestServerRejectsCorruptStream(t *testing.T) {
	params := core.Params{Eps: 2, N: 1000, ItemBytes: 4, Y: 64, Seed: 5}
	srv := pesServer(t, params)
	dev, err := core.NewPESWire(params)
	if err != nil {
		t.Fatal(err)
	}
	good, err := dev.Report([]byte{0, 0, 0, 1}, 0, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}

	// A truncated frame must not be absorbed and must not wedge the server.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(batchMsg(1, good[:len(good)/2])); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// A frame with an unknown protocol-ID byte must be rejected mid-batch.
	bad := append(proto.WireReport(nil), good...)
	bad[0] = 99
	conn2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Write(batchMsg(2, good, bad)); err != nil {
		t.Fatal(err)
	}
	conn2.Close()

	// Give the handlers a moment, then confirm the server survived and
	// absorbed at most the one good frame.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && srv.Absorbed() < 1 {
		time.Sleep(5 * time.Millisecond)
	}
	if a := srv.Absorbed(); a > 1 {
		t.Fatalf("server absorbed %d reports from corrupt batches", a)
	}
	// Server still functional: a clean batch goes through.
	if err := SendWireBatch(context.Background(), srv.Addr(), []proto.WireReport{good}); err != nil {
		t.Fatalf("server wedged after corrupt batches: %v", err)
	}
}

// TestUnknownCommandRejected: an unknown command byte — including 0x01,
// the retired EOF-terminated report stream, which stays reserved — is
// answered with an ERR line.
func TestUnknownCommandRejected(t *testing.T) {
	params := core.Params{Eps: 2, N: 100, ItemBytes: 4, Y: 64, Seed: 6}
	srv := pesServer(t, params)
	for _, preamble := range [][]byte{
		{proto.IDWildcard, 0xee},
		{proto.IDWildcard, 0x01},
		{proto.IDPrivateExpanderSketch, 0x01},
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(preamble); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _ := conn.Read(buf)
		conn.Close()
		if n == 0 || !strings.HasPrefix(string(buf[:n]), "ERR ") {
			t.Fatalf("preamble %x: expected error reply, got %q", preamble, buf[:n])
		}
	}
	if got := srv.Absorbed(); got != 0 {
		t.Fatalf("rejected commands absorbed %d reports", got)
	}
}

// TestEstimateReplySizedByBytes pins that a client sizes an identify or
// top-k reply by the estimates that arrive, not by the count its header
// claims: a 4-byte reply claiming 2^24 estimates, then EOF, is refused
// without allocating for the claim.
func TestEstimateReplySizedByBytes(t *testing.T) {
	br := bufio.NewReader(bytes.NewReader(binary.BigEndian.AppendUint32(nil, 1<<24)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readEstimates(br, "identify")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("truncated reply: err = %v, want EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing a 4-byte reply allocated %d bytes, want under 1 MiB", got)
	}
}

// TestBlobReplySizedByBytes pins that a client sizes a snapshot or
// round-state reply by the bytes that arrive, not by its length prefix: a
// 4-byte reply claiming 64 MiB, then EOF, is refused without allocating
// for the claim.
func TestBlobReplySizedByBytes(t *testing.T) {
	br := bufio.NewReader(bytes.NewReader(binary.BigEndian.AppendUint32(nil, 64<<20)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readBlob(br, "snapshot")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) || !strings.Contains(err.Error(), "reading snapshot body") {
		t.Fatalf("truncated reply: err = %v, want EOF reading the body", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing a 4-byte reply allocated %d bytes, want under 1 MiB", got)
	}
}

// TestMergeSnapshotCommandSizedByBytes pins that a server sizes a merge
// command's snapshot by the bytes that arrive, not by its length prefix:
// a 6-byte command (protocol ID, merge command, u32 length claiming
// 64 MiB) whose peer then closes is refused without allocating for the
// claim.
func TestMergeSnapshotCommandSizedByBytes(t *testing.T) {
	srv := pesServer(t, core.Params{Eps: 4, N: 1000, ItemBytes: 2, Y: 16, Seed: 5})
	client, conn := net.Pipe()
	defer conn.Close()
	cmd := binary.BigEndian.AppendUint32([]byte{proto.IDPrivateExpanderSketch, cmdMergeSnapshot}, 64<<20)
	go func() {
		client.Write(cmd) //nolint:errcheck // the handler reads it or fails the test
		client.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := srv.handle(conn)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) || !strings.Contains(err.Error(), "reading snapshot body") {
		t.Fatalf("truncated merge: err = %v, want EOF reading the body", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing a 6-byte merge command allocated %d bytes, want under 1 MiB", got)
	}
	if n := srv.agg.TotalReports(); n != 0 {
		t.Fatalf("refused merge left %d reports", n)
	}
}
