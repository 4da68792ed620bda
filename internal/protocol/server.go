package protocol

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"ldphh/internal/checkpoint"
	"ldphh/internal/proto"
)

// Commands on the control byte that follows the protocol-ID byte opening
// every connection. Like protocol IDs, commands are append-only: 0x01 (the
// retired EOF-terminated report stream) stays reserved and is rejected as
// unknown.
const (
	cmdIdentify      = 0x02 // triggers identification; reply is the estimate list
	cmdSnapshot      = 0x03 // stream my accumulated state out (length-prefixed blob)
	cmdMergeSnapshot = 0x04 // absorb a child aggregator's state (length-prefixed blob)
	cmdReportBatch   = 0x05 // u32 frame count + that many contiguous frames; pipelined
	cmdQueryTopK     = 0x07 // u32 k; reply is the estimate list; pipelined (0x06 is ackByte)
	cmdRound         = 0x08 // read the open round's broadcast state; pipelined
	cmdAdvanceRound  = 0x09 // finalize the open round, open the next; reply is the new state; pipelined
)

// maxSnapshotBytes bounds the length prefix either side of a snapshot
// transfer will honor. It caps allocation from a hostile peer and keeps the
// prefix unambiguous against the textual "ERR " failure reply (whose first
// four bytes read as ~1.16e9, above this cap).
const maxSnapshotBytes = 1 << 30

// readSized reads the n-byte body of a length-prefixed transfer from r
// into a buffer sized by the bytes that arrive, not by the prefix: it
// starts at min(n, 512 KiB) and doubles as each fills, never past n, so a
// peer that claims a large body and sends none costs at most 512 KiB,
// and a body of a few MiB a copy or two. Its errors are io.ReadFull's
// over the whole body.
func readSized(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, 512<<10))
	for {
		m, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil || len(buf) == n {
			return buf, err
		}
		buf = append(make([]byte, 0, min(2*cap(buf), n)), buf...)
	}
}

// Server aggregates LDP reports over TCP into any proto.Aggregator. One
// Server serves one collection round for one protocol; the protocol ID is
// negotiated (verified) at connection time and revalidated on every
// self-describing report frame.
//
// Reports arrive only as cmdReportBatch mega-batches (a single device
// report is a batch of one). Each batch is read window by window and every
// window is handed to the aggregator's AbsorbBatch — one lock acquisition
// per window instead of one per report, so concurrent senders never contend
// on the aggregator per report.
//
// The hot ingest path is allocation-free per report: frames land in pooled
// fixed-size window buffers (one buffer per in-flight connection window,
// pre-sliced into WireReport views), so the steady-state batch path costs
// ~0 heap allocations per report — see TestBatchDecodeAllocs for the pin.
// Memory per connection is bounded by one window; a sender that outruns
// absorption is parked by TCP flow control rather than buffered without
// bound.
//
// Aggregators that additionally implement proto.Mergeable (capability
// detected at runtime) answer the snapshot/merge commands that compose
// servers into fan-in trees; others reject those commands with an ERR
// reply.
type Server struct {
	agg   proto.Aggregator
	codec proto.Codec

	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}

	windows sync.Pool // *frameWindow sized for this codec's frames

	// Permanent listener death outside Close: dieOnce records the fatal
	// Accept error and closes dead so operators can watch for it (Err,
	// Done) instead of discovering a silently deaf server.
	dieOnce sync.Once
	dead    chan struct{}
	diedErr error

	// Close/Shutdown may race from any number of goroutines; the Once is
	// what makes the closed-channel close and the listener teardown happen
	// exactly once (a bare select on s.closed lets two goroutines both take
	// the default branch and double-close the channel — a panic).
	closeOnce sync.Once
	closeErr  error

	// Durability and observability (nil/zero when not configured).
	cfg     serverConfig
	metrics *Metrics
	merge   proto.Mergeable     // snapshot capability, nil if unsupported
	ckpt    *checkpoint.Manager // nil when checkpointing is off
	ckptMu  sync.Mutex          // serializes snapshot+save so triggers never interleave
	msrv    *metricsServer      // nil when no metrics address is configured
}

// serverConfig carries the lifecycle options.
type serverConfig struct {
	metricsAddr  string
	ckptDir      string
	ckptInterval time.Duration
	ckptEvery    int
	ckptRetain   int
}

// ServerOption configures durability and observability on any of the
// server constructors.
type ServerOption func(*serverConfig)

// WithCheckpointDir enables durable checkpoints in dir: the newest valid
// checkpoint is restored into the aggregator before the listener accepts
// its first connection (torn or truncated files fall back to the previous
// valid one; a parameter-fingerprint mismatch fails startup), periodic and
// ack-coupled checkpoints persist the state while the round runs, and a
// graceful Shutdown writes a final checkpoint. The aggregator must support
// snapshots (proto.Mergeable).
func WithCheckpointDir(dir string) ServerOption {
	return func(c *serverConfig) { c.ckptDir = dir }
}

// WithCheckpointInterval sets the periodic checkpoint cadence (default
// 30s; <= 0 disables the timer, leaving only ack-coupled and shutdown
// checkpoints).
func WithCheckpointInterval(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.ckptInterval = d }
}

// WithCheckpointEvery couples durability to the ingest acknowledgment:
// whenever at least n reports have been absorbed since the last
// checkpoint, the server checkpoints synchronously before acknowledging
// the report command that crossed the threshold — so an acknowledged batch
// is on disk before the sender retires it, and a kill -9 can only lose the
// unacknowledged window. Set n to the mega-batch size for exactly-once
// recovery semantics with client-side replay of unacknowledged batches.
func WithCheckpointEvery(n int) ServerOption {
	return func(c *serverConfig) { c.ckptEvery = n }
}

// WithCheckpointRetain keeps the newest n checkpoint files on disk
// (default 3, minimum 2 so torn-file recovery always has a fallback).
func WithCheckpointRetain(n int) ServerOption {
	return func(c *serverConfig) { c.ckptRetain = n }
}

// WithMetricsAddr starts the HTTP operability sidecar on addr (use
// "127.0.0.1:0" to let the kernel pick): /healthz for probes and load
// balancers, /metrics for Prometheus scrapes. MetricsAddr reports the
// bound address.
func WithMetricsAddr(addr string) ServerOption {
	return func(c *serverConfig) { c.metricsAddr = addr }
}

const (
	// windowFrames bounds how many frames a connection buffers before
	// folding into the aggregator: the per-connection memory ceiling and
	// the unit of backpressure (a sender is parked by TCP flow control
	// while its window absorbs). A batch torn mid-flight keeps only its
	// complete windows before the tear. 4Ki frames keeps a pooled window
	// at ~64 KiB. Every kind's AbsorbBatch folds a window in place under
	// one acquisition of the adapter lock, O(window) per call with no
	// sketch-sized copy, so the window size trades only memory against
	// lock round trips.
	windowFrames = 4096
	// maxBatchFrames caps the frame count one cmdReportBatch command may
	// declare, bounding how long a single command can monopolize a
	// connection handler and keeping a hostile count header from looking
	// plausible. Larger ingests pipeline multiple batch commands on one
	// connection.
	maxBatchFrames = 1 << 22
)

// frameWindow is one pooled read window: a contiguous frame buffer plus the
// aliasing WireReport views, sliced once at construction so the hot loop
// never re-slices (and never allocates) per frame or per window.
type frameWindow struct {
	buf []byte
	wrs []proto.WireReport
}

func newFrameWindow(frameLen int) *frameWindow {
	w := &frameWindow{
		buf: make([]byte, windowFrames*frameLen),
		wrs: make([]proto.WireReport, windowFrames),
	}
	for i := range w.wrs {
		w.wrs[i] = proto.WireReport(w.buf[i*frameLen : (i+1)*frameLen])
	}
	return w
}

// NewGenericServer constructs a server around any aggregator and starts
// listening on addr. The aggregator's protocol must have a registered wire
// codec (every protocol in the repository registers one at init).
func NewGenericServer(agg proto.Aggregator, addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s, err := ServeListener(agg, ln, opts...)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return s, nil
}

// ServeListener constructs a server around any aggregator on an existing
// listener, which the server takes ownership of (Close closes it). It is
// the injection point for custom listeners — tests wrap a faulty one to
// exercise accept-loop resilience; deployments can hand in a TLS listener.
//
// When a checkpoint directory is configured, recovery runs here, before
// the accept loop starts: the newest valid on-disk checkpoint is restored
// into the aggregator (torn or truncated files fall back to the previous
// valid one), and a checkpoint whose parameter fingerprint does not match
// the aggregator fails construction — restarting under different
// parameters must be loud, not a silent fresh start over a stale round.
func ServeListener(agg proto.Aggregator, ln net.Listener, opts ...ServerOption) (*Server, error) {
	codec, ok := proto.Lookup(agg.ProtocolID())
	if !ok {
		return nil, fmt.Errorf("protocol: aggregator protocol ID %#02x has no registered codec", agg.ProtocolID())
	}
	var cfg serverConfig
	cfg.ckptInterval = 30 * time.Second
	for _, opt := range opts {
		opt(&cfg)
	}
	s := &Server{
		agg:     agg,
		codec:   codec,
		ln:      ln,
		closed:  make(chan struct{}),
		dead:    make(chan struct{}),
		cfg:     cfg,
		metrics: newMetrics(codec.Name, agg.TotalReports),
	}
	frameLen := codec.FrameBytes()
	s.windows.New = func() any { return newFrameWindow(frameLen) }
	if cfg.ckptDir != "" {
		if err := s.openCheckpoints(); err != nil {
			return nil, err
		}
	}
	if cfg.metricsAddr != "" {
		msrv, err := startMetricsServer(cfg.metricsAddr, s)
		if err != nil {
			return nil, err
		}
		s.msrv = msrv
	}
	if s.ckpt != nil && cfg.ckptInterval > 0 {
		s.wg.Add(1)
		go s.checkpointLoop(cfg.ckptInterval)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// openCheckpoints wires the durable-checkpoint manager up and runs the
// startup recovery path.
func (s *Server) openCheckpoints() error {
	m, ok := proto.AsMergeable(s.agg)
	if !ok {
		return fmt.Errorf("protocol: %s does not support snapshots; checkpoints need a Mergeable aggregator", s.codec.Name)
	}
	copts := []checkpoint.Option{checkpoint.WithFingerprint(m.Fingerprint())}
	if s.cfg.ckptRetain > 0 {
		copts = append(copts, checkpoint.WithRetain(s.cfg.ckptRetain))
	}
	mgr, err := checkpoint.Open(s.cfg.ckptDir, copts...)
	if err != nil {
		return err
	}
	payload, info, err := mgr.LoadNewest()
	switch {
	case err == nil:
		if err := m.Restore(payload); err != nil {
			return fmt.Errorf("protocol: restoring checkpoint %s: %w", info.Path, err)
		}
		recovered := int64(s.agg.TotalReports())
		s.metrics.recoveredReports.Store(recovered)
		s.metrics.noteCheckpoint(info.Seq, info.Time.UnixNano(), info.Bytes, recovered)
	case errors.Is(err, checkpoint.ErrNoCheckpoint):
		// Fresh start: nothing on disk (or nothing intact), begin at seq 1.
	default:
		// Fingerprint mismatch or an unreadable directory: refuse to serve.
		return err
	}
	s.ckpt, s.merge = mgr, m
	return nil
}

// checkpointLoop persists the aggregator state on a timer. Failures are
// recorded in the metrics (checkpoint_errors_total, /healthz
// last_checkpoint_error) and retried on the next tick — a transient disk
// error must not kill the ingest plane. The loop ends once Identify has
// closed the round: nothing is left to save.
func (s *Server) checkpointLoop(interval time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			if s.metrics.CheckpointLag() > 0 && errors.Is(s.takeCheckpoint(), proto.ErrRoundClosed) {
				return
			}
		}
	}
}

// takeCheckpoint snapshots the aggregator and durably persists it as the
// next checkpoint. The aggregator's report total is sampled before the
// snapshot, so the recorded lag can only overcount, never undercount,
// what the file covers. A round closed by Identify is no checkpoint error:
// the adapter's proto.ErrRoundClosed is returned uncounted.
func (s *Server) takeCheckpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.takeCheckpointLocked()
}

func (s *Server) takeCheckpointLocked() error {
	total := int64(s.agg.TotalReports())
	snap, err := s.merge.Snapshot()
	if errors.Is(err, proto.ErrRoundClosed) {
		return err
	}
	if err != nil {
		s.metrics.noteCheckpointError(err)
		return err
	}
	info, err := s.ckpt.Save(snap)
	if err != nil {
		s.metrics.noteCheckpointError(err)
		return err
	}
	s.metrics.checkpoints.Add(1)
	s.metrics.noteCheckpoint(info.Seq, info.Time.UnixNano(), len(snap), total)
	return nil
}

// maybeCheckpointSync implements the ack-coupled durability policy
// (WithCheckpointEvery): called after a report command absorbs and before
// its acknowledgment goes out. When the threshold is crossed the
// checkpoint happens here, synchronously — an error (a closed round's
// included) fails the command, so the client never receives an ack for
// state that is not on disk. The lag
// is rechecked under the checkpoint lock because a concurrent connection
// may have just covered this one's reports.
func (s *Server) maybeCheckpointSync() error {
	if s.ckpt == nil || s.cfg.ckptEvery <= 0 {
		return nil
	}
	if s.metrics.CheckpointLag() < int64(s.cfg.ckptEvery) {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.metrics.CheckpointLag() < int64(s.cfg.ckptEvery) {
		return nil
	}
	return s.takeCheckpointLocked()
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Aggregator exposes the aggregator this server feeds.
func (s *Server) Aggregator() proto.Aggregator { return s.agg }

// Absorbed returns the number of reports accepted so far.
func (s *Server) Absorbed() int { return s.agg.TotalReports() }

// Err reports why the server stopped accepting, if it did: nil while the
// listener is healthy (or was shut down by Close), the fatal Accept error
// after a permanent listener failure.
func (s *Server) Err() error {
	select {
	case <-s.dead:
		return s.diedErr
	default:
		return nil
	}
}

// Done returns a channel closed when the listener dies permanently outside
// Close — the signal a supervisor watches to restart or fail over instead
// of discovering a silently deaf server.
func (s *Server) Done() <-chan struct{} { return s.dead }

// Metrics exposes the server's operability counters (always non-nil).
func (s *Server) Metrics() *Metrics { return s.metrics }

// MetricsAddr returns the bound address of the HTTP operability sidecar,
// or "" when none was configured.
func (s *Server) MetricsAddr() string {
	if s.msrv == nil {
		return ""
	}
	return s.msrv.ln.Addr().String()
}

// Close stops accepting and waits for in-flight connections, then writes
// a final checkpoint when durability is configured. If the listener had
// already died of a permanent Accept failure, Close reports that failure
// instead of success. Close is safe to call concurrently and repeatedly:
// every call returns the same error after the same fully-drained state.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }

// Shutdown drains the server gracefully: stop accepting, wait (bounded by
// ctx) for in-flight connections and windows to finish folding into the
// aggregator, persist a final checkpoint, and tear the metrics sidecar
// down. A ctx expiry abandons the wait but still reports it — connections
// past the listener close still run to completion in the background.
func (s *Server) Shutdown(ctx context.Context) error {
	s.metrics.draining.Store(true)
	s.closeOnce.Do(func() {
		close(s.closed)
		s.closeErr = s.ln.Close()
	})
	waitErr := s.waitCtx(ctx)
	var ckptErr error
	if waitErr == nil {
		ckptErr = s.finalCheckpoint()
	}
	s.msrv.close()
	if dieErr := s.Err(); dieErr != nil {
		return dieErr
	}
	if waitErr != nil {
		return waitErr
	}
	if ckptErr != nil {
		return ckptErr
	}
	return s.closeErr
}

// waitCtx waits for the connection/loop waitgroup, bounded by ctx.
func (s *Server) waitCtx(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("protocol: shutdown abandoned with connections in flight: %w", ctx.Err())
	}
}

// finalCheckpoint persists the shutdown checkpoint: everything absorbed is
// on disk before the process exits, so a restart resumes the round with
// zero loss. Skipped when checkpointing is off or nothing changed since the
// last checkpoint. A round that Identify closed, over TCP or in process,
// has nothing left to save: the adapter's proto.ErrRoundClosed is no
// shutdown error.
func (s *Server) finalCheckpoint() error {
	if s.ckpt == nil || s.metrics.CheckpointLag() == 0 {
		return nil
	}
	if err := s.takeCheckpoint(); !errors.Is(err, proto.ErrRoundClosed) {
		return err
	}
	return nil
}

// isTemporary reports whether an Accept error is worth retrying (EMFILE/
// ENFILE-style resource pressure, aborted handshakes). The Temporary
// classification is asserted structurally so custom listeners can
// participate.
func isTemporary(err error) bool {
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	const (
		backoffFloor = 5 * time.Millisecond
		backoffCap   = time.Second
	)
	backoff := time.Duration(0)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if isTemporary(err) {
				// Transient failure (e.g. EMFILE under load): back off and
				// keep the listener alive instead of silently killing it.
				backoff *= 2
				if backoff < backoffFloor {
					backoff = backoffFloor
				}
				if backoff > backoffCap {
					backoff = backoffCap
				}
				timer := time.NewTimer(backoff)
				select {
				case <-s.closed:
					timer.Stop()
					return
				case <-timer.C:
				}
				continue
			}
			// Permanent listener death outside Close: surface it.
			s.dieOnce.Do(func() {
				s.diedErr = err
				close(s.dead)
			})
			return
		}
		backoff = 0
		s.metrics.connsAccepted.Add(1)
		s.metrics.connsActive.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.metrics.connsActive.Add(-1)
			defer s.wg.Done()
			defer conn.Close()
			if err := s.handle(conn); err != nil && !errors.Is(err, io.EOF) {
				// Best effort error reply; the connection is about to close.
				// The write deadline keeps a peer that stopped reading (or a
				// dead network path) from pinning this handler — and with it
				// Close/Shutdown, which wait on the handler waitgroup — for
				// the TCP timeout's minutes.
				conn.SetWriteDeadline(time.Now().Add(errReplyTimeout)) //nolint:errcheck // best-effort reply
				fmt.Fprintf(conn, "ERR %v\n", err)
			}
		}()
	}
}

// handle negotiates the protocol ID once per connection, then serves
// commands. cmdReportBatch, cmdQueryTopK and the round commands are
// pipelined — after the reply the connection loops back for the next
// command byte, so one connection carries any number of mega-batches (and
// may finish with an identify or snapshot). Identify, snapshot and merge
// keep their one-shot semantics and end the connection.
func (s *Server) handle(conn net.Conn) error {
	br := bufio.NewReader(conn)
	// Connection-time negotiation: the client names the protocol it speaks
	// (or the wildcard for control commands); a mismatch is rejected before
	// any state changes.
	id, err := br.ReadByte()
	if err != nil {
		return err
	}
	if id != proto.IDWildcard && id != s.agg.ProtocolID() {
		if c, ok := proto.Lookup(id); ok {
			return fmt.Errorf("protocol: client speaks %s, server aggregates %s", c.Name, s.codec.Name)
		}
		return fmt.Errorf("protocol: client protocol ID %#02x unknown (server aggregates %s)", id, s.codec.Name)
	}
	for {
		cmd, err := br.ReadByte()
		if err != nil {
			// EOF here is a clean end of a pipelined connection (or an empty
			// one); anything else is a transport failure.
			return err
		}
		switch cmd {
		case cmdReportBatch:
			if err := s.handleReportBatch(br); err != nil {
				return err
			}
			// Ack-coupled durability: when WithCheckpointEvery is armed and
			// this command crossed the threshold, the state is on disk before
			// the acknowledgment below — a failure here is an ERR, not an ack,
			// so the sender retries instead of retiring undurable data.
			if err := s.maybeCheckpointSync(); err != nil {
				return err
			}
			if _, err := conn.Write([]byte{ackByte}); err != nil {
				return err
			}
			// Pipelined: loop for the next command on this connection.
		case cmdIdentify:
			return s.handleIdentify(conn)
		case cmdQueryTopK:
			if err := s.handleQueryTopK(conn, br); err != nil {
				return err
			}
			// Pipelined: a monitoring client interleaves queries with report
			// batches on one connection.
		case cmdRound, cmdAdvanceRound:
			if err := s.handleRound(conn, cmd == cmdAdvanceRound); err != nil {
				return err
			}
			// Pipelined: a round driver reads the broadcast, streams the
			// round's batches and advances, all on one connection.
		case cmdSnapshot:
			return s.handleSnapshot(conn)
		case cmdMergeSnapshot:
			return s.handleMergeSnapshot(conn, br)
		default:
			return fmt.Errorf("protocol: unknown command %d", cmd)
		}
	}
}

const ackByte = 0x06

// errReplyTimeout bounds the best-effort ERR reply write on a failing
// connection. A variable so tests can shrink it.
var errReplyTimeout = 2 * time.Second

// handleReportBatch serves one cmdReportBatch command: a u32 frame count
// followed by exactly that many contiguous fixed-size frames. The count
// makes the body self-delimiting — no EOF handshake — which is what lets
// one connection pipeline many batches. Frames are absorbed window by
// window from the pooled buffer: bounded memory per connection, ~0 heap
// allocations per report. On an absorb failure the declared remainder is
// drained (its exact length is known) before the error reply, so the
// sender never wedges; every report before the first invalid one counts.
func (s *Server) handleReportBatch(br *bufio.Reader) error {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("protocol: reading batch header: %w", err)
	}
	count := binary.BigEndian.Uint32(hdr[:])
	if count == 0 {
		return nil // an empty batch is a legal no-op (still acknowledged)
	}
	if count > maxBatchFrames {
		return fmt.Errorf("protocol: batch of %d frames exceeds the %d-frame cap", count, maxBatchFrames)
	}
	frameLen := s.codec.FrameBytes()
	w := s.windows.Get().(*frameWindow)
	defer s.windows.Put(w)
	remaining := int(count)
	for remaining > 0 {
		k := remaining
		if k > windowFrames {
			k = windowFrames
		}
		if _, err := io.ReadFull(br, w.buf[:k*frameLen]); err != nil {
			s.metrics.absorbErrors.Add(1)
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return fmt.Errorf("protocol: batch truncated with %d of %d frames outstanding", remaining, count)
			}
			return err
		}
		remaining -= k
		s.metrics.windowDepth.Add(1)
		err := s.agg.AbsorbBatch(w.wrs[:k])
		s.metrics.windowDepth.Add(-1)
		if err != nil {
			// Valid prefix absorbed (AbsorbBatch's contract); discard the
			// declared remainder so the sender finishes its write and reads
			// the ERR reply instead of wedging mid-batch.
			s.metrics.absorbErrors.Add(1)
			io.CopyN(io.Discard, br, int64(remaining)*int64(frameLen)) //nolint:errcheck // best-effort drain
			return err
		}
	}
	s.metrics.batchesAbsorbed.Add(1)
	return nil
}

func (s *Server) handleIdentify(conn net.Conn) error {
	// Identification honors no server-side deadline — the client's context
	// bounds how long it waits — but it does honor the client itself: the
	// watcher below cancels the derived context the moment the peer hangs
	// up, so an O~(n) reconstruction never runs on for a caller that is
	// gone. The read is safe as a disconnect probe because the identify
	// protocol sends nothing after the command byte (clients hold the
	// connection open without half-closing until the reply lands), so the
	// only bytes this Read can return precede an EOF or reset.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(watchDone)
		var one [1]byte
		conn.Read(one[:]) //nolint:errcheck // any outcome means the client is done talking
		cancel()
	}()
	// The deferred conn.Close in acceptLoop unblocks the watcher; wait for
	// it here too so the pooled buffers this handler still references are
	// not returned while a goroutine from this connection lives.
	defer func() { cancel(); conn.SetReadDeadline(time.Now()); <-watchDone }() //nolint:errcheck // teardown

	start := time.Now()
	est, err := s.agg.Identify(ctx)
	elapsed := time.Since(start)
	s.metrics.identifies.Add(1)
	s.metrics.identifyNanos.Add(int64(elapsed))
	s.metrics.lastIdentifyNanos.Store(int64(elapsed))
	if err != nil {
		s.metrics.identifyErrors.Add(1)
		return err
	}
	return writeEstimates(conn, est)
}

// writeEstimates renders the estimate-list reply shared by identify and
// top-k queries: u32 count, then per estimate a u16 item length, the item
// bytes and the count's IEEE 754 bits (bit-identical float64 on the far
// side). Validation runs before the first write: once the count header is
// on the wire the reply can only be completed, not turned into an ERR line.
func writeEstimates(conn net.Conn, est []proto.Estimate) error {
	for _, e := range est {
		if len(e.Item) > 0xffff {
			return fmt.Errorf("protocol: estimate item of %d bytes does not fit the reply frame", len(e.Item))
		}
	}
	bw := bufio.NewWriter(conn)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(est)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	for _, e := range est {
		var lenb [2]byte
		binary.BigEndian.PutUint16(lenb[:], uint16(len(e.Item)))
		if _, err := bw.Write(lenb[:]); err != nil {
			return err
		}
		if _, err := bw.Write(e.Item); err != nil {
			return err
		}
		var cnt [8]byte
		binary.BigEndian.PutUint64(cnt[:], math.Float64bits(e.Count))
		if _, err := bw.Write(cnt[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// handleQueryTopK serves one continuous top-k query: a u32 k (0 asks for
// the aggregator's configured size) answered with the estimate-list framing
// identify uses, against the live structure — the stream is not retired and
// the connection loops for the next command, so a monitor can interleave
// queries with ingest batches. Only aggregators with the
// proto.ContinuousQuerier capability answer; others get an ERR reply.
func (s *Server) handleQueryTopK(conn net.Conn, br *bufio.Reader) error {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("protocol: reading top-k request: %w", err)
	}
	cq, ok := proto.AsContinuousQuerier(s.agg)
	if !ok {
		s.metrics.topkQueryErrors.Add(1)
		return fmt.Errorf("protocol: %s does not answer continuous top-k queries", s.codec.Name)
	}
	k := binary.BigEndian.Uint32(hdr[:])
	if k > maxTopK {
		s.metrics.topkQueryErrors.Add(1)
		return fmt.Errorf("protocol: implausible top-k request %d", k)
	}
	est, err := cq.QueryTopK(context.Background(), int(k))
	if err != nil {
		s.metrics.topkQueryErrors.Add(1)
		return err
	}
	s.metrics.topkQueries.Add(1)
	return writeEstimates(conn, est)
}

// maxTopK caps one query's answer size, keeping a hostile k header from
// provoking a domain-sized reply allocation.
const maxTopK = 1 << 20

// handleRound serves the interactive-protocol commands: cmdRound replies
// with the open round's broadcast state (the candidate-prefix set devices
// report against), cmdAdvanceRound finalizes the open round, opens the next
// one and replies with the new state. Only aggregators with the
// proto.Interactive capability answer; others get an ERR reply.
//
// A round transition is a durable commit point: when checkpointing is
// configured, the advanced state is on disk before the reply goes out, so a
// crash after the broadcast can never resurrect an already-closed round and
// re-spend its group's reports.
func (s *Server) handleRound(conn net.Conn, advance bool) error {
	it, ok := proto.AsInteractive(s.agg)
	if !ok {
		s.metrics.roundErrors.Add(1)
		return fmt.Errorf("protocol: %s is not an interactive (multi-round) protocol", s.codec.Name)
	}
	var rs proto.RoundState
	if advance {
		var err error
		if rs, err = it.AdvanceRound(); err != nil {
			s.metrics.roundErrors.Add(1)
			return err
		}
		s.metrics.roundsAdvanced.Add(1)
		if s.ckpt != nil {
			// The transition persists synchronously before the broadcast
			// (engine snapshots serialize done states too, so even the final
			// advance is recoverable).
			if err := s.takeCheckpoint(); err != nil {
				return err
			}
		}
	} else {
		rs = it.RoundState()
	}
	blob := proto.EncodeRoundState(rs)
	if len(blob) > maxSnapshotBytes {
		return fmt.Errorf("protocol: round state of %d bytes exceeds transfer cap", len(blob))
	}
	bw := bufio.NewWriter(conn)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(blob)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.Write(blob); err != nil {
		return err
	}
	return bw.Flush()
}

// mergeable returns the aggregator's snapshot capability or an error for
// the ERR reply when the protocol cannot snapshot.
func (s *Server) mergeable() (proto.Mergeable, error) {
	m, ok := proto.AsMergeable(s.agg)
	if !ok {
		return nil, fmt.Errorf("protocol: %s does not support snapshots", s.codec.Name)
	}
	return m, nil
}

// handleSnapshot serializes the aggregator's accumulated state and streams
// it back as a u32 length prefix plus the blob. Reports absorbed after the
// internal Snapshot call are simply not in this checkpoint; they remain in
// this aggregator's state and reach the root in a later snapshot or not at
// all — the transfer itself is consistent at one instant because Snapshot
// runs under the aggregator's lock.
func (s *Server) handleSnapshot(conn net.Conn) error {
	m, err := s.mergeable()
	if err != nil {
		return err
	}
	snap, err := m.Snapshot()
	if err != nil {
		return err
	}
	if len(snap) > maxSnapshotBytes {
		return fmt.Errorf("protocol: snapshot of %d bytes exceeds transfer cap", len(snap))
	}
	s.metrics.snapshotsServed.Add(1)
	bw := bufio.NewWriter(conn)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(snap)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.Write(snap); err != nil {
		return err
	}
	return bw.Flush()
}

// handleMergeSnapshot reads a length-prefixed snapshot blob from a child
// aggregator and folds it into the server state, acknowledging with the
// same byte report batches use so the child knows its state was absorbed
// before it retires the data.
func (s *Server) handleMergeSnapshot(conn net.Conn, br *bufio.Reader) error {
	m, err := s.mergeable()
	if err != nil {
		return err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("protocol: reading snapshot length: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxSnapshotBytes {
		return fmt.Errorf("protocol: snapshot length %d exceeds transfer cap", n)
	}
	buf, err := readSized(br, int(n))
	if err != nil {
		return fmt.Errorf("protocol: reading snapshot body: %w", err)
	}
	if err := m.MergeSnapshot(buf); err != nil {
		s.metrics.absorbErrors.Add(1)
		return err
	}
	s.metrics.mergesAbsorbed.Add(1)
	if err := s.maybeCheckpointSync(); err != nil {
		return err
	}
	_, err = conn.Write([]byte{ackByte})
	return err
}
