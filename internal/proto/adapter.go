package proto

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrRoundClosed is returned, wrapped with the kind's name, by every call
// that reads or writes the accumulated state once an Identify has
// succeeded: Absorb, AbsorbBatch, Identify, Snapshot, Restore and
// MergeSnapshot. The paper's protocols are one-shot, so the first answer
// is the answer; callers keep it.
var ErrRoundClosed = errors.New("round closed by Identify")

// Kernel is the per-kind core behind an Adapter: the protocol-specific
// decode-and-fold step and the reconstruction. Every method runs with the
// adapter's lock held, so implementations need no locking of their own,
// and none tracks the round lifecycle: the adapter does.
type Kernel interface {
	// AbsorbPayload decodes one report payload (already header-checked,
	// exactly the codec's PayloadBytes long) and folds it into the state.
	AbsorbPayload(payload []byte) error
	// Identify runs the reconstruction. The adapter has already checked
	// ctx on entry; a super-linear kernel may check it again mid-scan. An
	// error leaves the round open.
	Identify(ctx context.Context) ([]Estimate, error)
	// TotalReports returns the number of reports absorbed so far.
	TotalReports() int
	// SketchBytes returns resident server memory.
	SketchBytes() int
}

// Adapter implements Aggregator once, for every kind, over a Kernel: the
// one lock, the one round lifecycle, the one valid-prefix batch loop, the
// one ctx-on-entry check and the locked Table 1 tallies. Protocol packages
// embed it in their wire types and add only the device-side Report and
// their capability methods, which serialize with ingest through Locked.
//
// The round closes when, and only when, the kernel's Identify returns
// without error; from then on Gated refuses every call with
// ErrRoundClosed, while the tallies and Locked capability reads keep
// answering. A failed or cancelled Identify closes nothing.
//
// The codec is resolved once, at construction, so the per-frame header
// check in AbsorbBatch touches no registry lock.
type Adapter struct {
	mu     sync.Mutex
	closed bool // guarded by mu
	codec  Codec
	k      Kernel
}

// NewAdapter builds the adapter for the registered codec id over k. An
// unregistered id is a programming error (protocol packages register their
// codecs in init) and panics.
func NewAdapter(id byte, k Kernel) Adapter {
	c, ok := Lookup(id)
	if !ok {
		panic(fmt.Sprintf("proto: adapter for unregistered protocol ID %#02x", id))
	}
	return Adapter{codec: c, k: k}
}

// ProtocolID returns the codec's registered ID.
func (a *Adapter) ProtocolID() byte { return a.codec.ID }

// BytesPerReport returns the codec's payload size (the Table 1
// communication metric; excludes the 2-byte wire header).
func (a *Adapter) BytesPerReport() int { return a.codec.PayloadBytes }

// Absorb validates and folds one report: a batch of one.
func (a *Adapter) Absorb(w WireReport) error { return a.AbsorbBatch([]WireReport{w}) }

// AbsorbBatch folds a batch under one lock acquisition, checking each
// frame's header and decoding its payload inline, so the call allocates
// nothing regardless of batch size. Every report up to the first invalid
// one is absorbed and the first error is returned.
func (a *Adapter) AbsorbBatch(wrs []WireReport) error {
	return a.Gated(func() error {
		for _, w := range wrs {
			if err := a.codec.checkHeader(w); err != nil {
				return err
			}
			if err := a.k.AbsorbPayload(w[headerBytes:]); err != nil {
				return err
			}
		}
		return nil
	})
}

// Identify checks ctx on entry, then runs the kernel's reconstruction
// under the lock. Its first success closes the round.
func (a *Adapter) Identify(ctx context.Context) ([]Estimate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var est []Estimate
	err := a.Gated(func() (err error) {
		est, err = a.k.Identify(ctx)
		a.closed = err == nil
		return err
	})
	return est, err
}

// TotalReports returns the number of absorbed reports.
func (a *Adapter) TotalReports() (n int) {
	a.Locked(func() { n = a.k.TotalReports() })
	return n
}

// SketchBytes returns resident server memory.
func (a *Adapter) SketchBytes() (n int) {
	a.Locked(func() { n = a.k.SketchBytes() })
	return n
}

// Locked runs f under the adapter's lock, open round or not: the
// capability reads (continuous queries, round state, recovery floors) use
// it to serialize with ingest and Identify.
func (a *Adapter) Locked(f func()) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f()
}

// Gated runs f under the adapter's lock while the round is open, and
// refuses with ErrRoundClosed once Identify has closed it: the one gate
// every call that reads or writes the accumulated state goes through.
func (a *Adapter) Gated(f func() error) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return fmt.Errorf("proto: %s: %w", a.codec.Name, ErrRoundClosed)
	}
	return f()
}
