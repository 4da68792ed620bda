package stream

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"ldphh/internal/freqoracle"
	"ldphh/internal/proto"
)

// Wire payload: one k-ary RR domain ordinal, u32 big endian. The payload
// carries no window stamp — every window shares the ε/w randomizer, so
// debiasing needs only the total report count, and the server advances its
// window clock by count. Four bytes per report regardless of domain size.
const PayloadBytes = 4

const wireVersion = 1

func init() {
	proto.Register(proto.Codec{
		ID:           proto.IDStreamHG,
		Name:         "streamhg",
		Version:      wireVersion,
		PayloadBytes: PayloadBytes,
	})
}

// Wire adapts the streaming aggregator to the unified
// proto.Reporter/Aggregator surface, so it inherits the generic TCP server,
// mega-batch ingest, snapshot/merge fan-in, durable checkpoints and the
// metrics sidecar unchanged. Items are width-itemBytes encodings of domain
// ordinals, exactly like the other enumerable-domain protocols. The core
// Aggregator is not safe for concurrent use; the embedded
// proto.StateAdapter serializes every call on its own mutex and serves the
// snapshot capability (snapshot.go has the body codec).
//
// On top of the batch surface it implements proto.ContinuousQuerier:
// QueryTopK answers over the live structure at any time, while Identify
// keeps the repo-wide round semantics (answer, then the adapter closes the
// round).
type Wire struct {
	proto.StateAdapter[*Aggregator]
	a         *Aggregator
	itemBytes int
}

// NewWire constructs the adapter around a fresh streaming aggregator.
// itemBytes is the item width Identify/QueryTopK answers use; the domain
// must fit it.
func NewWire(p Params, itemBytes int) (*Wire, error) {
	if itemBytes < 1 || itemBytes > 8 {
		return nil, fmt.Errorf("stream: Wire supports ItemBytes in [1,8], got %d", itemBytes)
	}
	if itemBytes < 8 && uint64(p.Domain) > uint64(1)<<(8*itemBytes) {
		return nil, fmt.Errorf("stream: domain %d exceeds the %d-byte item width", p.Domain, itemBytes)
	}
	a, err := New(p)
	if err != nil {
		return nil, err
	}
	k := &streamKernel{Aggregator: a, itemBytes: itemBytes}
	// Pre-envelope snapshots carry "LSGK" | 1 before the same body.
	return &Wire{
		StateAdapter: proto.NewStateAdapter[*Aggregator](proto.IDStreamHG, k, []byte("LSGK\x01")),
		a:            a, itemBytes: itemBytes,
	}, nil
}

// streamKernel is Wire's proto.StateCodec; Merge is the Aggregator's own.
type streamKernel struct {
	*Aggregator
	itemBytes int
}

// Fingerprint mixes the item width into the Aggregator's digest, because
// it shapes every answer's encoding.
func (k *streamKernel) Fingerprint() uint64 {
	return proto.Fingerprint("ldphh/stream.Wire/v1", uint64(k.itemBytes), k.Aggregator.Fingerprint())
}

// AbsorbPayload folds one k-ary RR ordinal; Absorb rejects values outside
// the domain.
func (k *streamKernel) AbsorbPayload(p []byte) error {
	return k.Absorb(binary.BigEndian.Uint32(p))
}

// Identify answers the configured top-k; the adapter then closes the
// round, as for every kind (further ingestion fails, the final checkpoint
// is skipped). Use QueryTopK to read the structure while the stream runs.
func (k *streamKernel) Identify(context.Context) ([]proto.Estimate, error) {
	return estimates(k.QueryTopK(k.p.K), k.itemBytes), nil
}

// Aggregator exposes the wrapped core (for in-process inspection; callers
// must not mutate it concurrently with the adapter).
func (w *Wire) Aggregator() *Aggregator { return w.a }

// Report computes one user's wire report for item x: the item's domain
// ordinal pushed through the per-window ε/w k-ary randomized response. The
// device-side budget contract is behavioral: a device reporting at most
// once per window spends at most ε over the stream by basic composition.
func (w *Wire) Report(x []byte, _ int, rng *rand.Rand) (proto.WireReport, error) {
	v, err := freqoracle.OrdinalOf(x, w.itemBytes, w.a.p.Domain)
	if err != nil {
		return nil, err
	}
	out := w.a.rr.Sample(v, rng)
	dst := proto.AppendHeader(make([]byte, 0, 2+PayloadBytes), proto.IDStreamHG, wireVersion)
	dst = binary.BigEndian.AppendUint32(dst, uint32(out))
	return proto.WireReport(dst), nil
}

// estimates converts core value estimates to the unified estimate type.
func estimates(ve []ValueEstimate, itemBytes int) []proto.Estimate {
	out := make([]proto.Estimate, len(ve))
	for i, e := range ve {
		out[i] = proto.Estimate{Item: freqoracle.OrdinalBytes(uint64(e.Value), itemBytes), Count: e.Count}
	}
	return out
}

// QueryTopK answers the k largest debiased estimates over the live
// structure without retiring the stream (proto.ContinuousQuerier); k <= 0
// asks for the configured Params.K. Ingestion may continue concurrently —
// the query serializes with absorption on the adapter lock.
func (w *Wire) QueryTopK(ctx context.Context, k int) ([]proto.Estimate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var ve []ValueEstimate
	w.Locked(func() { ve = w.a.QueryTopK(k) })
	return estimates(ve, w.itemBytes), nil
}

// StreamStats reports the stream position (proto.ContinuousQuerier).
func (w *Wire) StreamStats() (st proto.StreamStats) {
	w.Locked(func() {
		st = proto.StreamStats{
			Window:     w.a.CurrentWindow(),
			Windows:    w.a.p.Windows,
			WindowSize: w.a.p.WindowSize,
			TopK:       w.a.p.K,
			Warmup:     w.a.InWarmup(),
			Evictions:  w.a.Evictions(),
		}
	})
	return st
}

// MinRecoverableFrequency reports the recovery floor (proto.Calibrated):
// the larger of the per-value estimation envelope at β = 0.05 and, for the
// bounded structure, the capture floor above which a value reliably holds a
// cell. Values above the floor appear in QueryTopK with the accuracy-suite
// recall guarantee; below it the bounded structure makes no promise.
func (w *Wire) MinRecoverableFrequency() (f float64) {
	w.Locked(func() {
		f = w.a.ErrorBound(0.05)
		if c := w.a.CaptureFloor(); c > f {
			f = c
		}
	})
	return f
}
