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
	"strings"
	"time"

	"ldphh/internal/proto"
)

// Network clients. Every call takes a context with real deadline and
// cancellation propagation: the context's deadline is installed as the
// connection deadline, and a cancellation mid-call wakes any blocked read
// or write immediately — a stalled or wedged server cannot block a client
// forever (the regression TestContextClientsAgainstWedgedServer pins this).
// Callers that want to wait as long as the server takes pass
// context.Background(). Every call is one command on an IngestConn: the
// session methods pipeline on a persistent connection, and the one-shot
// functions run the same command on a fresh connection (oneShot).

// awaitAck reads the single acknowledgment byte, relaying a textual
// "ERR ...\n" reply as an error.
func awaitAck(r *bufio.Reader, op string) error {
	first, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("protocol: waiting for %s ack: %w", op, err)
	}
	if first == ackByte {
		return nil
	}
	msg, _ := r.ReadString('\n')
	return fmt.Errorf("protocol: server rejected %s: %s", op, strings.TrimSpace(string(first)+msg))
}

// SendWireBatch delivers pre-encoded wire reports in one cmdReportBatch
// command over one connection and waits for the acknowledgment; for
// repeated batches prefer DialIngest, which amortizes the dial across the
// whole session. All reports must belong to one protocol; an empty batch
// is a no-op.
func SendWireBatch(ctx context.Context, addr string, reports []proto.WireReport) error {
	if len(reports) == 0 {
		return nil
	}
	c, err := DialIngest(ctx, addr, reports[0].ProtocolID())
	if err != nil {
		return err
	}
	defer c.Close()
	return c.SendBatch(ctx, reports)
}

// IngestConn is a persistent ingest session: one TCP connection carrying
// any number of cmdReportBatch commands, so the dial (and the per-frame
// syscall overhead) amortizes across an entire device fleet's worth of
// reports instead of being paid per batch. It is the client half of the
// million-device ingest path — cmd/hhload drives servers to saturation
// through it.
//
// An IngestConn is not safe for concurrent use; open one per sending
// goroutine. A batch the client refuses before sending — mixed protocol
// IDs, a wrong frame length, a slab that is not whole frames, more frames
// than the cap — fails before its first byte is written and leaves the
// session usable. After any other error the connection is dead: Close it
// and dial again.
type IngestConn struct {
	conn     net.Conn
	bw       *bufio.Writer
	br       *bufio.Reader
	id       byte
	frameLen int
}

// DialIngest opens an ingest session to a server for the protocol with the
// given registered ID. The context bounds the dial only; each SendBatch
// call takes its own context.
func DialIngest(ctx context.Context, addr string, id byte) (*IngestConn, error) {
	codec, ok := proto.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("protocol: protocol ID %#02x has no registered codec", id)
	}
	return dial(ctx, addr, id, codec.FrameBytes())
}

// dial connects a session speaking protocol id (proto.IDWildcard for
// control commands). The ID negotiates once per connection; it flushes
// with the first command.
func dial(ctx context.Context, addr string, id byte, frameLen int) (*IngestConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &IngestConn{
		conn:     conn,
		bw:       bufio.NewWriterSize(conn, 1<<16),
		br:       bufio.NewReader(conn),
		id:       id,
		frameLen: frameLen,
	}
	if err := c.bw.WriteByte(id); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// oneShot runs one command on a fresh wildcard connection, the context
// bounding the dial as well: the form of every call that needs no session.
func oneShot[T any](ctx context.Context, addr string, call func(c *IngestConn) (T, error)) (T, error) {
	c, err := dial(ctx, addr, proto.IDWildcard, 0)
	if err != nil {
		var zero T
		return zero, err
	}
	defer c.Close()
	return call(c)
}

// FrameBytes returns the fixed wire frame length of the session's protocol
// (the unit SendEncoded slabs must be a multiple of).
func (c *IngestConn) FrameBytes() int { return c.frameLen }

// Close tears the session down.
func (c *IngestConn) Close() error { return c.conn.Close() }

// runWithCtx wires ctx to one call on the connection: ctx's deadline
// becomes the conn deadline for the call, cancellation snaps it into the
// past, and the deadline is cleared afterwards so later calls start fresh.
// If fn fails because ctx expired, the returned error wraps ctx.Err() so
// callers can errors.Is against context.DeadlineExceeded /
// context.Canceled.
func (c *IngestConn) runWithCtx(ctx context.Context, fn func() error) error {
	if dl, ok := ctx.Deadline(); ok {
		if err := c.conn.SetDeadline(dl); err != nil {
			return err
		}
		defer c.conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	stop := context.AfterFunc(ctx, func() { c.conn.SetDeadline(time.Now()) })
	defer stop()
	if err := fn(); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("protocol: %w (%v)", ctxErr, err)
		}
		// The only deadline ever set on the connection is ctx's, so an I/O
		// timeout at the context's deadline means the context is expiring —
		// the poller can fire a hair before ctx.Err() flips, so wait out the
		// skew and report the context's error. A timeout from anywhere else
		// (a kernel ETIMEDOUT also satisfies net.Error.Timeout) is returned
		// as-is: with no imminent ctx deadline, Done may never fire.
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			if dl, ok := ctx.Deadline(); ok && time.Until(dl) < time.Second {
				<-ctx.Done()
				return fmt.Errorf("protocol: %w (%v)", ctx.Err(), err)
			}
		}
		return err
	}
	return nil
}

// command sends one command — the command byte, then body — under ctx and
// hands the reply to read.
func (c *IngestConn) command(ctx context.Context, read func(br *bufio.Reader) error, cmd byte, body ...[]byte) error {
	return c.runWithCtx(ctx, func() error {
		if err := c.bw.WriteByte(cmd); err != nil {
			return err
		}
		for _, b := range body {
			if _, err := c.bw.Write(b); err != nil {
				return err
			}
		}
		if err := c.bw.Flush(); err != nil {
			return err
		}
		return read(c.br)
	})
}

// u32 encodes a command's u32 body field.
func u32(n int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(n)) }

// SendBatch delivers one mega-batch of pre-encoded reports and waits for
// the acknowledgment that every frame was absorbed. All reports must carry
// the session's protocol ID and the codec's exact frame length; the whole
// batch is checked before its first byte is written, so a bad report never
// lets part of the batch into the aggregate. An empty batch is a no-op.
// The whole exchange — header, frames, ACK — stays on the session's
// connection, so consecutive batches pay zero dials and the frames ride a
// handful of large writes.
func (c *IngestConn) SendBatch(ctx context.Context, reports []proto.WireReport) error {
	for _, wr := range reports {
		if got := wr.ProtocolID(); got != c.id {
			return fmt.Errorf("protocol: mixed protocol IDs in one batch (%#02x and %#02x)", c.id, got)
		}
		if len(wr) != c.frameLen {
			return fmt.Errorf("protocol: report of %d bytes in a %d-byte-frame batch", len(wr), c.frameLen)
		}
	}
	return c.sendBatch(ctx, len(reports), func() error {
		for _, wr := range reports {
			if _, err := c.bw.Write(wr); err != nil {
				return err
			}
		}
		return nil
	})
}

// SendEncoded delivers one mega-batch from a pre-packed contiguous slab of
// frames (length a multiple of FrameBytes) and waits for the
// acknowledgment. This is the zero-copy fast path for senders that keep
// their fleet's reports densely encoded — the slab goes to the socket as
// one write, with no per-report slice handling at all.
func (c *IngestConn) SendEncoded(ctx context.Context, slab []byte) error {
	if len(slab)%c.frameLen != 0 {
		return fmt.Errorf("protocol: slab of %d bytes is not a whole number of %d-byte frames", len(slab), c.frameLen)
	}
	return c.sendBatch(ctx, len(slab)/c.frameLen, func() error {
		_, err := c.bw.Write(slab)
		return err
	})
}

// sendBatch is the one write path of both batch senders: it frames count
// already-validated frames, which writeFrames buffers, as one
// cmdReportBatch command and waits for the acknowledgment.
func (c *IngestConn) sendBatch(ctx context.Context, count int, writeFrames func() error) error {
	if count == 0 {
		return nil
	}
	if count > maxBatchFrames {
		return fmt.Errorf("protocol: batch of %d frames exceeds the %d-frame cap; split it", count, maxBatchFrames)
	}
	return c.runWithCtx(ctx, func() error {
		hdr := [5]byte{cmdReportBatch}
		binary.BigEndian.PutUint32(hdr[1:], uint32(count))
		if _, err := c.bw.Write(hdr[:]); err != nil {
			return err
		}
		if err := writeFrames(); err != nil {
			return err
		}
		if err := c.bw.Flush(); err != nil {
			return err
		}
		return awaitAck(c.br, "batch")
	})
}

// readReplyHeader reads the u32 count or length that opens an estimate-list
// or blob reply, relaying the server's textual "ERR ...\n" failure line as
// an error instead of misparsing it; the callers' caps keep the two
// unambiguous ("ERR " decodes to ~1.16e9). op names the command in errors.
func readReplyHeader(br *bufio.Reader, op string) (uint32, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("protocol: reading %s reply: %w", op, err)
	}
	if string(hdr[:]) == "ERR " {
		msg, _ := br.ReadString('\n')
		return 0, fmt.Errorf("protocol: server rejected %s: %s", op, strings.TrimSpace(msg))
	}
	return binary.BigEndian.Uint32(hdr[:]), nil
}

// readEstimates parses the estimate-list reply of identify and top-k
// queries: u32 count, then per estimate a u16 item length, the item bytes
// and the count's IEEE 754 bits — so the TCP path returns bit-identical
// float64 estimates.
func readEstimates(br *bufio.Reader, op string) ([]proto.Estimate, error) {
	n, err := readReplyHeader(br, op)
	if err != nil {
		return nil, err
	}
	const maxItems = 1 << 24
	if n > maxItems {
		return nil, fmt.Errorf("protocol: implausible estimate count %d", n)
	}
	// The reply carries no total length, so the claimed count cannot be
	// checked against the bytes up front: start small and let append grow.
	out := make([]proto.Estimate, 0, min(n, 64))
	for i := uint32(0); i < n; i++ {
		var lenb [2]byte
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			return nil, err
		}
		item := make([]byte, binary.BigEndian.Uint16(lenb[:]))
		if _, err := io.ReadFull(br, item); err != nil {
			return nil, err
		}
		var cnt [8]byte
		if _, err := io.ReadFull(br, cnt[:]); err != nil {
			return nil, err
		}
		out = append(out, proto.Estimate{Item: item, Count: math.Float64frombits(binary.BigEndian.Uint64(cnt[:]))})
	}
	return out, nil
}

// readBlob parses a u32-length-prefixed blob reply (a snapshot or an
// encoded round state).
func readBlob(br *bufio.Reader, op string) ([]byte, error) {
	n, err := readReplyHeader(br, op)
	if err != nil {
		return nil, err
	}
	if n > maxSnapshotBytes {
		return nil, fmt.Errorf("protocol: implausible %s reply length %d", op, n)
	}
	blob, err := readSized(br, int(n))
	if err != nil {
		return nil, fmt.Errorf("protocol: reading %s body: %w", op, err)
	}
	return blob, nil
}

// estimates runs a command answered with an estimate list.
func (c *IngestConn) estimates(ctx context.Context, op string, cmd byte, body ...[]byte) ([]proto.Estimate, error) {
	var est []proto.Estimate
	err := c.command(ctx, func(br *bufio.Reader) (err error) {
		est, err = readEstimates(br, op)
		return err
	}, cmd, body...)
	return est, err
}

// blob runs a command answered with a length-prefixed blob.
func (c *IngestConn) blob(ctx context.Context, op string, cmd byte) ([]byte, error) {
	var blob []byte
	err := c.command(ctx, func(br *bufio.Reader) (err error) {
		blob, err = readBlob(br, op)
		return err
	}, cmd)
	return blob, err
}

// RequestIdentifyContext asks the server to run identification and
// returns the estimates. A wedged or slow server cannot block the caller
// past the context's deadline.
func RequestIdentifyContext(ctx context.Context, addr string) ([]proto.Estimate, error) {
	return oneShot(ctx, addr, func(c *IngestConn) ([]proto.Estimate, error) {
		return c.estimates(ctx, "identify", cmdIdentify)
	})
}

// QueryTopKContext asks a streaming aggregation server for its current
// top-k heavy hitters without retiring the round. k <= 0 asks for the
// server's configured answer size. Servers for batch protocols reject the
// query with an ERR reply.
func QueryTopKContext(ctx context.Context, addr string, k int) ([]proto.Estimate, error) {
	return oneShot(ctx, addr, func(c *IngestConn) ([]proto.Estimate, error) {
		return c.QueryTopK(ctx, k)
	})
}

// QueryTopK asks the server for its current top-k over the session's
// persistent connection — the command is pipelined, so a monitor can
// interleave queries with SendBatch calls without re-dialing. k <= 0 asks
// for the server's configured answer size.
func (c *IngestConn) QueryTopK(ctx context.Context, k int) ([]proto.Estimate, error) {
	return c.estimates(ctx, "top-k query", cmdQueryTopK, u32(max(k, 0)))
}

// RequestRoundContext asks an interactive aggregation server for the open
// round's broadcast state — the candidate-prefix set the round's user group
// reports against. Servers for single-round protocols reject the command
// with an ERR reply.
func RequestRoundContext(ctx context.Context, addr string) (proto.RoundState, error) {
	return oneShot(ctx, addr, func(c *IngestConn) (proto.RoundState, error) { return c.Round(ctx) })
}

// AdvanceRoundContext asks an interactive aggregation server to finalize
// the open round and open the next one, returning the new broadcast state
// (Done once the final round committed). When the server checkpoints, the
// transition is durable before this reply arrives.
func AdvanceRoundContext(ctx context.Context, addr string) (proto.RoundState, error) {
	return oneShot(ctx, addr, func(c *IngestConn) (proto.RoundState, error) { return c.AdvanceRound(ctx) })
}

// Round reads the open round's broadcast state over the session's
// persistent connection — pipelined, so a round driver interleaves state
// reads, report batches and advances without re-dialing.
func (c *IngestConn) Round(ctx context.Context) (proto.RoundState, error) {
	return c.roundCmd(ctx, cmdRound, "round")
}

// AdvanceRound finalizes the open round over the session's persistent
// connection and returns the new broadcast state.
func (c *IngestConn) AdvanceRound(ctx context.Context) (proto.RoundState, error) {
	return c.roundCmd(ctx, cmdAdvanceRound, "round advance")
}

func (c *IngestConn) roundCmd(ctx context.Context, cmd byte, op string) (proto.RoundState, error) {
	blob, err := c.blob(ctx, op, cmd)
	if err != nil {
		return proto.RoundState{}, err
	}
	return proto.DecodeRoundState(blob)
}

// RequestSnapshotContext asks an aggregation server for its accumulated
// state and returns the snapshot bytes, ready to feed a parent aggregator
// via PushSnapshotContext (or Mergeable.MergeSnapshot / Restore in
// process).
func RequestSnapshotContext(ctx context.Context, addr string) ([]byte, error) {
	return oneShot(ctx, addr, func(c *IngestConn) ([]byte, error) {
		return c.blob(ctx, "snapshot", cmdSnapshot)
	})
}

// PushSnapshotContext ships a leaf aggregator's snapshot to a parent
// server, which merges it into its own state, and waits for the
// acknowledgment. The two ends must run protocols with matching parameters
// (for PES: equal fingerprints — same Params.Seed and sketch geometry); a
// mismatch is rejected server-side before any state changes.
func PushSnapshotContext(ctx context.Context, addr string, snap []byte) error {
	if len(snap) > maxSnapshotBytes {
		return fmt.Errorf("protocol: snapshot of %d bytes exceeds transfer cap", len(snap))
	}
	_, err := oneShot(ctx, addr, func(c *IngestConn) (struct{}, error) {
		return struct{}{}, c.command(ctx, func(br *bufio.Reader) error {
			return awaitAck(br, "snapshot merge")
		}, cmdMergeSnapshot, u32(len(snap)), snap)
	})
	return err
}
