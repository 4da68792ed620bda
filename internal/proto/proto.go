// Package proto defines the unified protocol abstraction every heavy-hitters
// protocol in this repository plugs into: a device-side Reporter that turns
// one user's item into a self-describing wire-codable report, a server-side
// Aggregator that absorbs wire reports and identifies the heavy hitters, and
// an optional Mergeable capability for aggregators whose accumulated state
// snapshots and merges (the fan-in tree deployments).
//
// The paper's Table 1 is a cross-protocol comparison — PrivateExpanderSketch
// against Bitstogram/TreeHist (Bassily–Nissim–Stemmer–Thakurta, NIPS 2017)
// and a Bassily–Smith (STOC 2015) succinct histogram — and this package is
// what makes that comparison operational: every protocol speaks the same
// aggregation surface, so one generic TCP server, one benchmark harness and
// one merge tree drive them all. See DESIGN.md §2 for the layer diagram.
//
// proto sits at the bottom of the dependency tree: it imports none of the
// protocol packages. Each protocol package (internal/core, internal/baseline,
// internal/freqoracle, internal/stream, internal/interactive) registers its
// wire codec with Register in an init function and exposes an adapter type
// that embeds Adapter over a per-kind Kernel (StateAdapter over a
// StateCodec for the snapshot-capable kinds).
package proto

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"sort"
)

// Protocol IDs. Each registered wire codec owns exactly one; the byte is the
// first byte of every WireReport and the negotiation byte that opens every
// TCP connection. IDs are append-only: never reuse a retired value.
const (
	// IDWildcard is not a protocol: clients send it in the connection
	// preamble for control commands (identify, snapshot) that work against
	// any server protocol.
	IDWildcard byte = 0x00

	IDPrivateExpanderSketch byte = 0x01 // Algorithm 1, Theorem 3.13
	IDSmallDomain           byte = 0x02 // enumerable-domain variant (after Theorem 3.13)
	IDHashtogram            byte = 0x03 // frequency oracle, Theorem 3.7
	IDDirectHistogram       byte = 0x04 // frequency oracle, Theorem 3.8
	IDBitstogram            byte = 0x05 // Bassily et al. NIPS 2017 [3]
	IDTreeHist              byte = 0x06 // prefix-tree protocol of [3]
	IDBassilySmith          byte = 0x07 // Bassily–Smith STOC 2015 style [4]
	IDStreamHG              byte = 0x08 // streaming HeavyGuardian top-k (continuous query)
	IDPEM                   byte = 0x09 // multi-round prefix extension (Wang et al., arXiv 1708.06674)
	IDFedTrie               byte = 0x0A // federated trie discovery (Zhu et al., arXiv 1902.08534)
)

// Estimate is one identified item with its estimated multiplicity. It is the
// single estimate type every protocol in the repository returns
// (core.Estimate, baseline.Estimate and ldphh.Estimate are aliases).
type Estimate struct {
	Item  []byte
	Count float64
}

// EstimateLess is the total order every Identify publishes: decreasing
// count, ties broken by ascending item bytes. Identify outputs carry
// distinct items, so no two estimates compare equal and any correct sort,
// serial or parallel, produces the same permutation.
func EstimateLess(a, b Estimate) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return string(a.Item) < string(b.Item)
}

// SortEstimates sorts est into Identify order (EstimateLess).
func SortEstimates(est []Estimate) {
	sort.Slice(est, func(i, j int) bool { return EstimateLess(est[i], est[j]) })
}

// WireReport is one user's single ε-LDP message in self-describing framed
// form:
//
//	offset 0: protocol ID (the codec registry key)
//	offset 1: codec version
//	offset 2: protocol-specific payload, Codec.PayloadBytes long
//
// The two header bytes make any report stream self-identifying — an
// aggregator can reject a report from the wrong protocol or a future codec
// version before touching the payload — while BytesPerReport (the Table 1
// communication metric) keeps counting only the payload, exactly as every
// protocol's paper framing does.
type WireReport []byte

// headerBytes is the [protocol ID][codec version] prefix of every report.
const headerBytes = 2

// ProtocolID returns the protocol ID byte (0 for a report too short to
// carry one — never a registered ID).
func (w WireReport) ProtocolID() byte {
	if len(w) < 1 {
		return IDWildcard
	}
	return w[0]
}

// Version returns the codec version byte (0 for a truncated report).
func (w WireReport) Version() byte {
	if len(w) < headerBytes {
		return 0
	}
	return w[1]
}

// Payload returns the protocol-specific payload bytes.
func (w WireReport) Payload() []byte {
	if len(w) < headerBytes {
		return nil
	}
	return w[headerBytes:]
}

// NewWireReport assembles a report from its parts, copying the payload.
func NewWireReport(id, version byte, payload []byte) WireReport {
	w := make(WireReport, 0, headerBytes+len(payload))
	w = append(w, id, version)
	return append(w, payload...)
}

// AppendHeader appends the [id][version] report header to dst; codec
// implementations build reports as AppendHeader followed by payload appends.
func AppendHeader(dst []byte, id, version byte) []byte {
	return append(dst, id, version)
}

// Reporter is the device side of a protocol: one call per user turning the
// user's item into the single message it sends. Implementations are
// deterministic in their construction parameters (a device and a server
// built from the same parameters agree on all public randomness) and safe
// for concurrent use with per-goroutine rngs — Report never mutates shared
// state.
type Reporter interface {
	Report(item []byte, userIdx int, rng *rand.Rand) (WireReport, error)
}

// Aggregator is the server side of a protocol: it absorbs wire reports in
// any order and identifies the heavy hitters once, which closes the round
// (Adapter, the one implementation, then refuses state calls with
// ErrRoundClosed). Implementations must be safe for concurrent use — the
// generic TCP server absorbs from many connections at once.
type Aggregator interface {
	// ProtocolID returns the wire codec this aggregator speaks; Absorb
	// rejects reports carrying any other ID.
	ProtocolID() byte
	// Absorb validates and folds one report into the accumulated state.
	Absorb(WireReport) error
	// AbsorbBatch folds a batch under one lock acquisition where the
	// implementation supports it. Every report up to the first invalid one
	// is absorbed; the first error is returned.
	AbsorbBatch([]WireReport) error
	// Identify runs the server-side reconstruction and returns estimates
	// sorted by decreasing count (ties by ascending item bytes). The
	// context bounds long reconstructions; implementations honor
	// cancellation at least on entry, super-linear ones periodically.
	Identify(ctx context.Context) ([]Estimate, error)
	// TotalReports returns the number of reports absorbed so far.
	TotalReports() int
	// SketchBytes returns resident server memory (Table 1 metric).
	SketchBytes() int
	// BytesPerReport returns the payload size of one user message (Table 1
	// communication metric; excludes the 2-byte wire header).
	BytesPerReport() int
}

// Protocol is a full protocol instance: both halves in one value. The
// concrete adapters (core.PESWire, baseline.BitstogramWire, ...) all satisfy
// it, so ldphh.New can hand back one object usable on either side.
type Protocol interface {
	Reporter
	Aggregator
}

// Mergeable is the optional aggregator capability behind snapshot/merge
// fan-in trees and durable checkpoints: serialize accumulated
// (pre-Identify) state, rehydrate a checkpoint, fold a sibling's snapshot
// into a running aggregator. Fingerprint digests every parameter that
// shapes the state and public randomness: aggregators with equal
// fingerprints produce mutually loadable snapshots, and checkpoint files
// stamp it. StateAdapter is the one implementation; every snapshot carries
// the protocol ID and fingerprint in its envelope. Detect the capability
// with AsMergeable.
type Mergeable interface {
	Snapshot() ([]byte, error)
	Restore([]byte) error
	MergeSnapshot([]byte) error
	Fingerprint() uint64
}

// AsMergeable reports whether the aggregator supports snapshot/merge
// fan-in, returning the capability view when it does. The generic server
// uses this to answer snapshot commands only for protocols that can.
func AsMergeable(a Aggregator) (Mergeable, bool) {
	m, ok := a.(Mergeable)
	return m, ok
}

// Calibrated is the optional capability of protocols that can state their
// recovery floor: the smallest multiplicity the configuration reliably
// identifies (or, for pure frequency oracles, the per-query error envelope).
// Benchmarks use it to score recall against ground truth.
type Calibrated interface {
	MinRecoverableFrequency() float64
}

// Fingerprint digests a label and a sequence of words with FNV-1a, each
// word written big endian: the one construction behind every parameter
// fingerprint in the repository. Each caller labels its own type, so
// fingerprints of different types cannot collide. Checkpoint files stamp
// these digests, so the construction must never change.
func Fingerprint(label string, words ...uint64) uint64 {
	f := fnv.New64a()
	f.Write([]byte(label))
	var buf [8]byte
	for _, w := range words {
		binary.BigEndian.PutUint64(buf[:], w)
		f.Write(buf[:])
	}
	return f.Sum64()
}

// StreamStats describes a continuous-query aggregator's position in its
// stream: the zero-based window the next report lands in, the configured
// per-user budget split (each report is randomized at ε/Windows), and the
// bounded-memory structure's churn. Batch aggregators have no stats.
type StreamStats struct {
	Window     int   // zero-based index of the current ingest window
	Windows    int   // configured budget split w (per-report budget is ε/w)
	WindowSize int   // reports per window (the window clock)
	TopK       int   // configured top-k answer size
	Warmup     bool  // still in the structure-filling warmup phase
	Evictions  int64 // cells evicted by decay so far
}

// ContinuousQuerier is the optional aggregator capability behind the
// QueryTopK server command: answer "what is hot right now" over the live
// structure without retiring the round the way Identify does. k <= 0 asks
// for the aggregator's configured top-k size. Detect it with
// AsContinuousQuerier.
type ContinuousQuerier interface {
	QueryTopK(ctx context.Context, k int) ([]Estimate, error)
	StreamStats() StreamStats
}

// AsContinuousQuerier reports whether the aggregator answers continuous
// top-k queries, returning the capability view when it does. The generic
// server uses this to serve the QueryTopK command (and to surface stream
// position in /metrics) only for streaming protocols.
func AsContinuousQuerier(a Aggregator) (ContinuousQuerier, bool) {
	c, ok := a.(ContinuousQuerier)
	return c, ok
}
