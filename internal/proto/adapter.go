package proto

import (
	"context"
	"fmt"
	"sync"
)

// Kernel is the per-kind core behind an Adapter: the protocol-specific
// decode-and-fold step and the reconstruction. Every method runs with the
// adapter's lock held, so implementations need no locking of their own.
type Kernel interface {
	// AbsorbPayload decodes one report payload (already header-checked,
	// exactly the codec's PayloadBytes long) and folds it into the state.
	AbsorbPayload(payload []byte) error
	// Identify runs the reconstruction. The adapter has already checked
	// ctx on entry; a super-linear kernel may check it again mid-scan.
	Identify(ctx context.Context) ([]Estimate, error)
	// TotalReports returns the number of reports absorbed so far.
	TotalReports() int
	// SketchBytes returns resident server memory.
	SketchBytes() int
}

// Adapter implements Aggregator once, for every kind, over a Kernel: the
// one lock, the one valid-prefix batch loop, the one ctx-on-entry check and
// the locked Table 1 tallies. Protocol packages embed it in their wire
// types and add only the device-side Report and their capability methods,
// which serialize with ingest through Locked.
//
// The codec is resolved once, at construction, so the per-frame header
// check in AbsorbBatch touches no registry lock.
type Adapter struct {
	mu    *sync.Mutex
	codec Codec
	k     Kernel
}

// NewAdapter builds the adapter for the registered codec id over k. mu is
// the lock every call takes; nil gives the adapter a mutex of its own,
// while a protocol that is itself safe for concurrent use passes its own
// mutex so direct calls and adapter calls serialize on one lock. An
// unregistered id is a programming error (protocol packages register their
// codecs in init) and panics.
func NewAdapter(id byte, mu *sync.Mutex, k Kernel) Adapter {
	c, ok := Lookup(id)
	if !ok {
		panic(fmt.Sprintf("proto: adapter for unregistered protocol ID %#02x", id))
	}
	if mu == nil {
		mu = new(sync.Mutex)
	}
	return Adapter{mu: mu, codec: c, k: k}
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
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, w := range wrs {
		if err := a.codec.checkHeader(w); err != nil {
			return err
		}
		if err := a.k.AbsorbPayload(w[headerBytes:]); err != nil {
			return err
		}
	}
	return nil
}

// Identify checks ctx on entry, then runs the kernel's reconstruction
// under the lock.
func (a *Adapter) Identify(ctx context.Context) ([]Estimate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.k.Identify(ctx)
}

// TotalReports returns the number of absorbed reports.
func (a *Adapter) TotalReports() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.k.TotalReports()
}

// SketchBytes returns resident server memory.
func (a *Adapter) SketchBytes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.k.SketchBytes()
}

// Locked runs f under the adapter's lock: the capability methods (snapshot
// and merge, continuous queries, round transitions, recovery floors) use it
// to serialize with ingest and Identify.
func (a *Adapter) Locked(f func()) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f()
}
