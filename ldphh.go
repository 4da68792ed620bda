package ldphh

import (
	"context"
	"math/rand/v2"
	"time"

	"ldphh/internal/baseline"
	"ldphh/internal/composition"
	"ldphh/internal/core"
	"ldphh/internal/freqoracle"
	"ldphh/internal/genprot"
	"ldphh/internal/grouposition"
	"ldphh/internal/interactive"
	"ldphh/internal/ldp"
	"ldphh/internal/lowerbound"
	"ldphh/internal/proto"
	"ldphh/internal/protocol"
	"ldphh/internal/workload"
)

// The unified protocol surface (see DESIGN.md §2): every protocol in the
// repository — PrivateExpanderSketch, SmallDomain, the two frequency
// oracles and the three Table 1 baselines — satisfies Reporter (device
// side) and Aggregator (server side) over self-describing WireReports, so
// one generic TCP server, one benchmark harness and one merge tree drive
// them all. Construct instances with New; detect snapshot/merge support
// with AsMergeable.
type (
	// Reporter is the device side: one call per user, one WireReport out.
	Reporter = proto.Reporter
	// Aggregator is the server side: absorb wire reports, identify once.
	Aggregator = proto.Aggregator
	// Protocol is a full instance usable on either side (what New returns).
	Protocol = proto.Protocol
	// Mergeable is the optional snapshot/merge capability behind fan-in
	// trees.
	Mergeable = proto.Mergeable
	// WireReport is one user's self-describing serialized message:
	// [protocol ID][codec version][payload].
	WireReport = proto.WireReport
	// Calibrated is the optional capability of protocols that can state
	// their recovery floor (benchmarks score recall against it). Every
	// kind New constructs implements it.
	Calibrated = proto.Calibrated
	// ContinuousQuerier is the optional capability of streaming
	// aggregators (KindStreamHG): answer top-k over the live structure
	// without retiring the round.
	ContinuousQuerier = proto.ContinuousQuerier
	// StreamStats describes a streaming aggregator's position: current
	// window, budget split, warmup phase, eviction churn.
	StreamStats = proto.StreamStats
	// Interactive is the optional capability of multi-round aggregators
	// (KindPEM, KindFedTrie): broadcast the open round's candidate set,
	// install a broadcast on a device fleet, and commit round transitions.
	Interactive = proto.Interactive
	// RoundState is one round's broadcast: the open round index, the
	// candidate prefixes the round's user group reports against, and the
	// terminal Done flag.
	RoundState = proto.RoundState
)

// AsMergeable reports whether an aggregator supports snapshot/merge
// fan-in, returning the capability view when it does.
func AsMergeable(a Aggregator) (Mergeable, bool) { return proto.AsMergeable(a) }

// AsContinuousQuerier reports whether an aggregator answers continuous
// top-k queries while ingestion runs, returning the capability view when it
// does (KindStreamHG aggregators do).
func AsContinuousQuerier(a Aggregator) (ContinuousQuerier, bool) {
	return proto.AsContinuousQuerier(a)
}

// AsInteractive reports whether an aggregator runs a multi-round protocol,
// returning the capability view when it does (KindPEM and KindFedTrie
// aggregators do).
func AsInteractive(a Aggregator) (Interactive, bool) { return proto.AsInteractive(a) }

// ErrNotInRound is returned by an interactive kind's Report for a user
// whose group is not assigned to the open round; the user reports in their
// own round and nowhere else, which is what keeps the per-user budget at ε
// across the whole discovery.
var ErrNotInRound = interactive.ErrNotInRound

// ErrRoundClosed is returned, wrapped with the kind's name, by Absorb,
// AbsorbBatch, Identify, Snapshot, Restore and MergeSnapshot once an
// Identify has succeeded, for every kind: the protocols are one-shot, so
// callers keep the first answer. A failed or cancelled Identify closes
// nothing; tallies, capability reads and point queries keep answering.
var ErrRoundClosed = proto.ErrRoundClosed

// RoundRand returns the deterministic per-(round, user) device generator
// for the interactive kinds: replaying a fleet at any concurrency with
// these generators produces bit-identical reports.
func RoundRand(seed uint64, round, userIdx int) *rand.Rand {
	return interactive.RoundRand(seed, round, userIdx)
}

// Params configures the PrivateExpanderSketch heavy-hitters protocol; see
// core.Params for field documentation. Zero values derive the paper's
// defaults.
type Params = core.Params

// Report is one user's single ε-LDP message.
type Report = core.Report

// Estimate is one identified item with its estimated multiplicity — the
// one estimate type every protocol returns (core.Estimate and
// baseline.Estimate are the same type).
type Estimate = core.Estimate

// HeavyHitters is the PrivateExpanderSketch protocol instance
// (Theorem 3.13).
type HeavyHitters = core.Protocol

// NewHeavyHitters constructs the protocol; all public randomness derives
// from params.Seed, so a device that builds it from the same params
// computes reports the server accepts. The instance is not lightweight on
// either side: it holds the server counters (about 256 MiB at ε = 4,
// N = 10^6 and 4-byte items).
func NewHeavyHitters(params Params) (*HeavyHitters, error) {
	return core.New(params)
}

// FilterHeavyHitters reduces an Identify output to the Definition 3.1 view:
// items with estimate >= delta, truncated to the O(n/delta) list-size bound.
func FilterHeavyHitters(est []Estimate, n int, delta float64) ([]Estimate, error) {
	return core.HeavyHitters(est, n, delta)
}

// Frequency-oracle surface (Theorems 3.7 and 3.8).
type (
	// Hashtogram is the large-domain frequency oracle of Theorem 3.7.
	Hashtogram = freqoracle.Hashtogram
	// HashtogramParams configures Hashtogram.
	HashtogramParams = freqoracle.HashtogramParams
	// DirectHistogram is the small-domain oracle of Theorem 3.8.
	DirectHistogram = freqoracle.DirectHistogram
	// FrequencyOracle is the uniform experiment-facing oracle interface.
	FrequencyOracle = freqoracle.Oracle
)

// NewHashtogram constructs the Theorem 3.7 oracle.
func NewHashtogram(params HashtogramParams) (*Hashtogram, error) {
	return freqoracle.NewHashtogram(params)
}

// NewDirectHistogram constructs the Theorem 3.8 oracle over an explicit
// domain.
func NewDirectHistogram(eps float64, domain int) (*DirectHistogram, error) {
	return freqoracle.NewDirectHistogram(eps, domain)
}

// Baseline protocols for the Table 1 comparison.
type (
	// Bitstogram is the Bassily-Nissim-Stemmer-Thakurta (NIPS 2017) protocol.
	Bitstogram = baseline.Bitstogram
	// BitstogramParams configures Bitstogram.
	BitstogramParams = baseline.BitstogramParams
	// TreeHist is the prefix-tree protocol from the same paper.
	TreeHist = baseline.TreeHist
	// TreeHistParams configures TreeHist.
	TreeHistParams = baseline.TreeHistParams
	// BassilySmith is the STOC 2015 style succinct-histogram baseline.
	BassilySmith = baseline.BassilySmith
	// BassilySmithParams configures BassilySmith.
	BassilySmithParams = baseline.BassilySmithParams
)

// NewTreeHist constructs the prefix-tree baseline.
func NewTreeHist(params TreeHistParams) (*TreeHist, error) {
	return baseline.NewTreeHist(params)
}

// NewBitstogram constructs the [3] baseline.
func NewBitstogram(params BitstogramParams) (*Bitstogram, error) {
	return baseline.NewBitstogram(params)
}

// NewBassilySmith constructs the [4] baseline.
func NewBassilySmith(params BassilySmithParams) (*BassilySmith, error) {
	return baseline.NewBassilySmith(params)
}

// Local randomizers with exactly evaluable output distributions.
type (
	// Randomizer is a discrete local randomizer with an evaluable output law.
	Randomizer = ldp.Randomizer
	// BinaryRR is ε-randomized response on a bit.
	BinaryRR = ldp.BinaryRR
	// KaryRR is generalized randomized response over [k].
	KaryRR = ldp.KaryRR
	// RAPPOR is basic one-time RAPPOR (the Chrome deployment).
	RAPPOR = ldp.RAPPOR
	// LeakyRR is a genuinely (ε,δ)-LDP randomizer for GenProt demos.
	LeakyRR = ldp.LeakyRR
)

// NewBinaryRR constructs binary randomized response.
func NewBinaryRR(eps float64) BinaryRR { return ldp.NewBinaryRR(eps) }

// NewKaryRR constructs k-ary randomized response.
func NewKaryRR(eps float64, k uint64) KaryRR { return ldp.NewKaryRR(eps, k) }

// NewLeakyRR constructs the (ε,δ)-LDP leaky randomizer.
func NewLeakyRR(eps, delta float64) LeakyRR { return ldp.NewLeakyRR(eps, delta) }

// MaxPrivacyRatio exhaustively verifies Definition 1.1 for a randomizer.
func MaxPrivacyRatio(r Randomizer) float64 { return ldp.MaxPrivacyRatio(r) }

// Section 4: advanced grouposition and max-information.

// AdvancedGroupEpsilon is Theorem 4.2: ε' = kε²/2 + ε·sqrt(2k·ln(1/δ)).
func AdvancedGroupEpsilon(eps float64, k int, delta float64) float64 {
	return grouposition.AdvancedGroupEpsilon(eps, k, delta)
}

// CentralGroupEpsilon is the central-model group privacy kε.
func CentralGroupEpsilon(eps float64, k int) float64 {
	return grouposition.CentralGroupEpsilon(eps, k)
}

// MaxInformation is Theorem 4.5's β-approximate max-information bound.
func MaxInformation(eps float64, n int, beta float64) float64 {
	return grouposition.MaxInformation(eps, n, beta)
}

// Section 5: composition for randomized response.

// MTilde is the Theorem 5.1 algorithm.
type MTilde = composition.MTilde

// NewMTilde constructs M̃ for k-fold ε-randomized response at closeness β.
func NewMTilde(k int, eps, beta float64) (*MTilde, error) {
	return composition.New(k, eps, beta)
}

// Section 6: GenProt.
type (
	// GenProt is the per-user purification transform of Theorem 6.1.
	GenProt = genprot.Transform
	// GenProtParams configures GenProt.
	GenProtParams = genprot.Params
)

// NewGenProt wraps an (ε,δ)-LDP randomizer into the pure 10ε-LDP report
// protocol; public reference samples are drawn from publicRng.
func NewGenProt(p GenProtParams, r Randomizer, publicRng *rand.Rand) (*GenProt, error) {
	return genprot.New(p, r, publicRng)
}

// GenProtDefaultT returns the Theorem 6.1 recommended reference-sample count.
func GenProtDefaultT(eps float64, n int, beta float64) int {
	return genprot.DefaultT(eps, n, beta)
}

// Section 7: the lower bound.

// ErrorLowerBound is Theorem 7.2's Δ ≥ (1/ε)·sqrt(n·ln(|X|/β)).
func ErrorLowerBound(eps float64, n int, domainSize, beta float64) float64 {
	return lowerbound.ErrorLowerBound(eps, n, domainSize, beta)
}

// Workloads and transport.
type (
	// Domain is a fixed-width byte-string universe.
	Domain = workload.Domain
	// Dataset is a concrete population with exact ground truth.
	Dataset = workload.Dataset
	// Server aggregates reports over TCP.
	Server = protocol.Server
)

// PlantedDataset builds n users with the given heavy-hitter fractions.
func PlantedDataset(d Domain, n int, fractions []float64, rng *rand.Rand) (*Dataset, error) {
	return workload.Planted(d, n, fractions, rng)
}

// ZipfDataset builds n users with Zipf(s) popularity over the support.
func ZipfDataset(d Domain, n, support int, s float64, rng *rand.Rand) (*Dataset, error) {
	return workload.Zipf(d, n, support, s, rng)
}

// ServerOption configures durability and observability on the aggregation
// servers: see WithCheckpointDir, WithCheckpointInterval,
// WithCheckpointEvery, WithCheckpointRetain and WithMetricsAddr.
type ServerOption = protocol.ServerOption

// ServerMetrics is the operability counter surface Server.Metrics exposes.
type ServerMetrics = protocol.Metrics

// WithCheckpointDir enables durable checkpoints in dir: the newest valid
// checkpoint on disk is restored into the aggregator before the server
// accepts its first connection (torn files fall back to the previous valid
// one; a parameter-fingerprint mismatch fails startup loudly), the state
// is persisted periodically while the round runs, and a graceful shutdown
// writes a final checkpoint. The aggregator must be Mergeable.
func WithCheckpointDir(dir string) ServerOption { return protocol.WithCheckpointDir(dir) }

// WithCheckpointInterval sets the periodic checkpoint cadence (default
// 30s; <= 0 leaves only ack-coupled and shutdown checkpoints).
func WithCheckpointInterval(d time.Duration) ServerOption {
	return protocol.WithCheckpointInterval(d)
}

// WithCheckpointEvery checkpoints synchronously before acknowledging any
// report command once n reports have accumulated since the last
// checkpoint — an acknowledged batch is on disk before the sender retires
// it, so a crash loses at most the unacknowledged window.
func WithCheckpointEvery(n int) ServerOption { return protocol.WithCheckpointEvery(n) }

// WithCheckpointRetain keeps the newest n checkpoint files (default 3,
// minimum 2).
func WithCheckpointRetain(n int) ServerOption { return protocol.WithCheckpointRetain(n) }

// WithMetricsAddr starts the HTTP operability sidecar on addr: /healthz
// for probes, /metrics for Prometheus scrapes.
func WithMetricsAddr(addr string) ServerOption { return protocol.WithMetricsAddr(addr) }

// NewAggregationServer starts a TCP aggregation server around any
// Aggregator — every protocol kind New constructs (and
// HeavyHitters.Wire()) plugs into the same generic server, which
// negotiates the protocol ID at connection time.
func NewAggregationServer(agg Aggregator, addr string, opts ...ServerOption) (*Server, error) {
	return protocol.NewGenericServer(agg, addr, opts...)
}

// SendWireReports delivers pre-encoded wire reports of any protocol to a
// server (all reports must carry one protocol ID) as one mega-batch — one
// length-prefixed command, no per-frame overhead — and waits for the
// acknowledgment. The context's deadline bounds the whole delivery, and
// cancellation interrupts blocked I/O immediately. For repeated sends,
// DialIngest amortizes the connection itself.
func SendWireReports(ctx context.Context, addr string, reports []WireReport) error {
	return protocol.SendWireBatch(ctx, addr, reports)
}

// IngestConn is a persistent ingest session: one TCP connection carrying
// any number of mega-batch report commands, so a fleet's worth of reports
// pays one dial. Not safe for concurrent use; open one per sender.
type IngestConn = protocol.IngestConn

// DialIngest opens an ingest session to an aggregation server for the
// given protocol kind. Each SendBatch/SendEncoded call on the session
// delivers one mega-batch and waits for the server's acknowledgment.
func DialIngest(ctx context.Context, addr string, kind Kind) (*IngestConn, error) {
	return protocol.DialIngest(ctx, addr, byte(kind))
}

// RequestIdentifyContext asks a server to identify and returns the
// estimates. A wedged or slow server cannot block the caller past the
// context's deadline.
func RequestIdentifyContext(ctx context.Context, addr string) ([]Estimate, error) {
	return protocol.RequestIdentifyContext(ctx, addr)
}

// QueryTopKContext asks a streaming aggregation server (KindStreamHG) for
// its current top-k heavy hitters without retiring the round; k <= 0 asks
// for the server's configured answer size. Batch-protocol servers reject
// the query.
func QueryTopKContext(ctx context.Context, addr string, k int) ([]Estimate, error) {
	return protocol.QueryTopKContext(ctx, addr, k)
}

// RequestRoundContext asks an interactive aggregation server (KindPEM,
// KindFedTrie) for the open round's broadcast state — the candidate-prefix
// set the round's user group reports against. Single-round servers reject
// the command.
func RequestRoundContext(ctx context.Context, addr string) (RoundState, error) {
	return protocol.RequestRoundContext(ctx, addr)
}

// AdvanceRoundContext asks an interactive aggregation server to finalize
// the open round — prune the candidate tally, extend the survivors — and
// open the next one, returning the new broadcast (Done once the final round
// committed). On a checkpointing server the transition is durable before
// the reply arrives.
func AdvanceRoundContext(ctx context.Context, addr string) (RoundState, error) {
	return protocol.AdvanceRoundContext(ctx, addr)
}

// Multi-aggregator trees. HeavyHitters state is a linear accumulator, so
// aggregation distributes: leaf aggregators ingest report shards
// independently, serialize their accumulated state with
// HeavyHitters.Snapshot, and a parent folds the bytes in with
// HeavyHitters.MergeSnapshot (or absorbs a sibling in process with
// MergeFrom). Snapshots are versioned and parameter-fingerprinted: they
// only load into a protocol built from the same Params (same Seed, same
// sketch geometry), and the merged root identifies the bit-identical
// heavy-hitter list a single aggregator would have produced. The two
// functions below run the same fan-in over TCP against NewAggregationServer
// instances.

// RequestSnapshotContext asks an aggregation server for its serialized
// accumulated state (a leaf checkpoint, ready for a parent's
// MergeSnapshot).
func RequestSnapshotContext(ctx context.Context, addr string) ([]byte, error) {
	return protocol.RequestSnapshotContext(ctx, addr)
}

// PushSnapshotContext ships a leaf snapshot to a parent aggregation
// server, which merges it into its own state and acknowledges.
func PushSnapshotContext(ctx context.Context, addr string, snap []byte) error {
	return protocol.PushSnapshotContext(ctx, addr, snap)
}
