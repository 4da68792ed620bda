// Package ldphh is a from-scratch Go reproduction of "Heavy Hitters and the
// Structure of Local Privacy" (Bun, Nelson, Stemmer — PODS 2018,
// arXiv:1711.04740): locally differentially private heavy hitters with
// worst-case error optimal in every parameter, including the failure
// probability.
//
// The package re-exports the library's public surface:
//
//   - HeavyHitters / Params — PrivateExpanderSketch (Algorithm 1,
//     Theorem 3.13), the paper's primary contribution, together with its
//     client-side Report computation and server-side Identify.
//   - Frequency oracles — Hashtogram (Theorem 3.7) for arbitrary domains and
//     DirectHistogram (Theorem 3.8) for small explicit domains, plus
//     RAPPOR/OLH/KRR baselines.
//   - Baselines — Bitstogram (Bassily et al., NIPS 2017) and a
//     Bassily–Smith (STOC 2015) style succinct histogram, for the Table 1
//     comparisons.
//   - Section 4 — advanced grouposition and max-information calculators with
//     a Monte-Carlo privacy-loss simulator.
//   - Section 5 — the composition-of-randomized-response algorithm M̃.
//   - Section 6 — GenProt, the approximate-to-pure LDP purification.
//   - Section 7 — the anti-concentration lower bound and its empirical
//     tightness harness.
//   - Unified protocol surface — every protocol above satisfies one
//     Reporter/Aggregator interface pair over self-describing wire-codable
//     reports (internal/proto): ldphh.New(kind, ...Option) constructs any
//     of them — PrivateExpanderSketch, KindSmallDomain, KindHashtogram,
//     KindDirectHistogram, KindTreeHist, KindBitstogram, KindBassilySmith,
//     KindStreamHG, KindPEM, KindFedTrie — AsMergeable detects
//     snapshot/merge support,
//     AsInteractive detects multi-round discovery, and the estimates all
//     flow through the single ldphh.Estimate type.
//   - Open-domain discovery — KindPEM (prefix extension, Wang et al.
//     arXiv:1708.06674) and KindFedTrie (federated trie, Zhu et al.
//     arXiv:1902.08534) discover heavy strings with no candidate list:
//     the server grows a candidate-prefix set over interactive rounds
//     (RoundState/SetRoundState/AdvanceRound, with RequestRoundContext
//     and AdvanceRoundContext network clients over the same TCP
//     preamble), users
//     partition into per-round groups so each reports exactly once at
//     full ε, and RoundRand gives every (round, user) pair its own
//     deterministic sub-stream. See DESIGN.md §10 and examples/opendomain.
//   - Transport — one generic TCP aggregation server any Aggregator plugs
//     into (NewAggregationServer), negotiating the protocol ID at
//     connection time. Reports arrive in one framing, the length-prefixed
//     mega-batch (SendWireReports, or DialIngest for a persistent
//     session); each connection absorbs its batches window by window, one
//     lock acquisition per window, so heavy fleets never serialize behind
//     a per-report lock. Servers also speak a snapshot/merge protocol
//     (RequestSnapshotContext/PushSnapshotContext) so Mergeable
//     aggregators compose into fan-in trees: leaves ingest, the root
//     merges their serialized state and identifies once. Every network
//     client takes a context.Context with real deadline and cancellation
//     propagation.
//
// # Identify parallelism and determinism
//
// Both server-side halves run concurrently. Ingestion runs one connection
// per sender (above); identification fans out over a bounded pool of
// Params.Workers goroutines (0 derives GOMAXPROCS, 1 forces the serial
// path) through every stage of Algorithm 1's reconstruction: the
// per-coordinate argmax/threshold scan of steps 2-3, the per-super-bucket
// list-recovery decode of step 4, and the step 5-6 confirmation estimates.
// The final sort of the short candidate list is serial.
//
// The determinism contract: the same absorbed multiset of reports and the
// same Params.Seed produce the bit-identical heavy-hitter list — same
// items, same order, same float64 counts — at every worker count. This
// holds because each parallel unit is a pure function of the frozen
// counters and the seed, writing only its own output slot; in particular
// the step-4 decoder draws its cluster-refinement randomness from a PCG
// sub-stream labelled (Seed, bucket) rather than from any shared
// generator, and the output order is a strict total order (count
// descending, item bytes ascending) over deduplicated items. Workers is
// therefore a pure throughput knob — it never feeds public randomness, so
// clients and servers may disagree on it freely. The contract is enforced
// under the race detector by core.TestIdentifyWorkerDeterminism and the
// ingestion-side equivalence tests in internal/protocol.
//
// # Mergeable snapshots and the merge determinism contract
//
// The accumulated server state is a linear object: HeavyHitters.Snapshot
// serializes it into a versioned, parameter-fingerprinted blob, Restore
// rehydrates a checkpoint, and MergeSnapshot/MergeFrom fold another
// aggregator's state into a running one. Snapshots only load where the
// fingerprint matches — same Params.Seed, same ε, same sketch geometry
// (Workers excluded) — and validation is atomic: corrupt or mismatched
// bytes are rejected before any counter changes.
//
// The merge determinism contract extends the worker-count contract above:
// for any split of a report multiset across leaf aggregators and any
// merge order, the root's Identify output is bit-identical to a single
// aggregator that absorbed every report itself. Counters are exact small
// integers in float64, so merge addition is associative and commutative
// with no rounding; the cross-layer equivalence suite enforces the
// contract at the oracle, protocol, TCP and facade layers under the race
// detector.
//
// Quickstart (go build ./... && go test ./... both work from a clean
// checkout; the module has no dependencies outside the standard library):
//
//	params := ldphh.Params{Eps: 2, N: 100000, ItemBytes: 8, Seed: 1}
//	hh, err := ldphh.NewHeavyHitters(params)
//	// each user i computes one small message locally:
//	rep, err := hh.Report(item, i, rng)
//	// the untrusted server aggregates:
//	err = hh.Absorb(rep)
//	// ... and identifies the heavy hitters with frequency estimates:
//	est, err := hh.Identify()
//
// High-throughput ingestion goes over TCP: serve hh.Wire() with
// NewAggregationServer and send each fleet's WireReports in mega-batches
// with SendWireReports or a DialIngest session.
//
// The same round through the unified surface works for every protocol of
// the paper's Table 1 comparison — only the Kind changes:
//
//	hh, err := ldphh.New(ldphh.PrivateExpanderSketch,
//		ldphh.WithEps(2), ldphh.WithN(100000), ldphh.WithItemBytes(8))
//	wr, err := hh.Report(item, i, rng)      // one self-describing WireReport
//	err = hh.Absorb(wr)
//	est, err := hh.Identify(ctx)
//
// See DESIGN.md for the system inventory: the layer diagram and wire codec
// registry (§2), the parameter derivations (§3), the determinism and merge
// contracts (§4) and the implementation substitutions S1-S5 (§5).
package ldphh
