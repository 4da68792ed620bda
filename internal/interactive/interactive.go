// Package interactive implements the multi-round open-domain discovery
// engine behind KindPEM and KindFedTrie: server-driven candidate-prefix
// extension over interactive protocol rounds.
//
// Both kinds share one engine. The population is partitioned into g =
// 2·ItemBytes groups by a public pairwise-independent hash of the user
// index, one per γ = 4-bit round; round r is answered exactly by group r,
// each user reporting the first PrefixBits bits of its value against the
// round's candidate set through the Theorem 3.8 DirectHistogram randomizer
// (one Hadamard bit at full ε). Because the groups partition the users,
// every user reports exactly once across the whole protocol, so the
// per-round privacy composition over all rounds is the single-report
// guarantee: max ratio <= e^ε.
//
// After a round's group has reported, AdvanceRound finalizes the round's
// frequency oracle, scales the group estimates to population counts, prunes
// the candidates — PEM keeps the heaviest TopK prefixes (Wang et al., arXiv
// 1708.06674), the federated trie keeps up to 4·⌈√N⌉ prefixes whose vote
// clears the round's β = 0.05 error envelope θ (Zhu et al., arXiv
// 1902.08534) — and extends each survivor by the next γ bits to form the
// next round's candidate set. The transition is validate-then-commit:
// finalizing only derives a view from the round's counters, so a failed
// advance leaves the open round absorbing.
//
// Determinism contract: the same absorbed multiset of reports produces the
// bit-identical round transition and final estimate list in any absorb
// order or fleet shape — every ordering is a strict total order. Device
// randomness for deterministic fleets comes from per-round PCG sub-streams
// via RoundRand.
package interactive

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"ldphh/internal/dist"
	"ldphh/internal/freqoracle"
	"ldphh/internal/hashing"
	"ldphh/internal/proto"
)

// Mode selects the pruning rule of the shared round engine.
type Mode int

const (
	// ModePEM is prefix extension: keep the TopK heaviest surviving
	// prefixes each round, answer the final TopK.
	ModePEM Mode = iota
	// ModeFedTrie is federated trie discovery: keep every prefix whose
	// population-scaled vote clears the threshold θ, growing the trie one
	// level per round.
	ModeFedTrie
)

func (m Mode) String() string {
	if m == ModeFedTrie {
		return "fedtrie"
	}
	return "pem"
}

// Engine constants. Each round extends the prefixes by bitsPerRound bits,
// so 8·ItemBytes-bit items take 2·ItemBytes rounds (at most 128, which the
// wire round byte holds); the candidate-set product bound keeps every
// per-round oracle domain far below the proto decode limit.
const (
	bitsPerRound   = 4
	maxRoundDomain = 1 << 22 // candidate count bound per round (matches proto.maxRoundCandidates)
	defaultTopK    = 16
	thresholdBeta  = 0.05               // failure probability of the FedTrie threshold envelope
	groupSeedLabel = 0x726f756e6447727  // "roundGr" — group-hash sub-seed label
	roundRandLabel = 0x726f756e64524e47 // "roundRNG" — per-round device sub-stream label
)

// ErrNotInRound is returned by Report when the user's group is not the one
// assigned to the currently open round: the user stays silent this round
// (their report would spend budget on a round that is not theirs).
var ErrNotInRound = errors.New("interactive: user's group is not assigned to the open round")

// Params configures the round engine.
type Params struct {
	Mode      Mode
	Eps       float64 // per-user privacy budget; each user reports once at full ε
	N         int     // population size (used to scale group estimates)
	ItemBytes int     // item width; total prefix bits = 8·ItemBytes
	// TopK is ModePEM's final answer size and per-round survivor count
	// (default 16).
	TopK int
	// Seed feeds all public randomness (the group hash).
	Seed uint64
}

// RoundReport is one user's message in decoded form: the round it belongs
// to plus the Theorem 3.8 Hadamard report against that round's candidate
// domain.
type RoundReport struct {
	Round int
	Col   uint32
	Bit   int8 // ±1
}

// Engine is the shared round state machine. It is not safe for concurrent
// use — Wire serializes it under proto.StateAdapter's lock for the
// aggregation server.
type Engine struct {
	p           Params
	bits        int // total prefix bits = 8·ItemBytes
	rounds      int // group count g = ceil(bits/bitsPerRound)
	survivorCap int // survivors kept per round: TopK (PEM) or 4·⌈√N⌉ (FedTrie)
	group       hashing.KWise
	fp          uint64

	round        int
	cands        [][]byte // canonical: sorted ascending, strictly increasing
	hist         *freqoracle.DirectHistogram
	roundReports int
	absorbed     int

	done      bool
	estimates []proto.Estimate

	blob []byte // the round oracle's blob a snapshot's BodyLen wrote for its AppendBody
}

// NewEngine validates Params, derives the round schedule and opens round 0
// with the 2^γ extensions of the empty prefix as candidates.
func NewEngine(p Params) (*Engine, error) {
	if p.Mode != ModePEM && p.Mode != ModeFedTrie {
		return nil, fmt.Errorf("interactive: unknown mode %d", p.Mode)
	}
	if p.Eps <= 0 {
		return nil, fmt.Errorf("interactive: Eps must be positive, got %v", p.Eps)
	}
	if p.N < 1 {
		return nil, fmt.Errorf("interactive: N must be positive, got %d", p.N)
	}
	if p.ItemBytes < 1 || p.ItemBytes > 64 {
		return nil, fmt.Errorf("interactive: ItemBytes must be in [1,64], got %d", p.ItemBytes)
	}
	if p.TopK == 0 {
		p.TopK = defaultTopK
	}
	if p.TopK < 1 {
		return nil, fmt.Errorf("interactive: TopK must be positive, got %d", p.TopK)
	}
	survivorCap := p.TopK
	if p.Mode == ModeFedTrie {
		survivorCap = 4 * int(math.Ceil(math.Sqrt(float64(p.N))))
	}
	if fanout := survivorCap << bitsPerRound; fanout > maxRoundDomain || fanout < survivorCap {
		return nil, fmt.Errorf("interactive: %d survivors x 2^%d candidates exceeds the per-round bound %d",
			survivorCap, bitsPerRound, maxRoundDomain)
	}
	bits := 8 * p.ItemBytes
	e := &Engine{
		p:           p,
		bits:        bits,
		rounds:      (bits + bitsPerRound - 1) / bitsPerRound,
		survivorCap: survivorCap,
		group:       hashing.NewKWise(2, hashing.Seeded(p.Seed, groupSeedLabel)),
	}
	e.fp = e.fingerprint()
	if err := e.openRound(0, extendPrefixes(nil, 0, e.bitsAt(0))); err != nil {
		return nil, err
	}
	return e, nil
}

// Params returns the validated (default-filled) parameters.
func (e *Engine) Params() Params { return e.p }

// bitsAt returns the candidate prefix width of round r.
func (e *Engine) bitsAt(r int) int {
	return min((r+1)*bitsPerRound, e.bits)
}

// Group returns the round index user userIdx reports in. The assignment is
// public randomness: any device or server built from the same Seed computes
// the identical partition.
func (e *Engine) Group(userIdx int) int {
	return e.group.Range(uint64(userIdx), e.rounds)
}

// RoundRand returns the deterministic per-(round, user) device generator:
// a PCG sub-stream labelled by seed, round and user via dist.Mix, so a
// fleet replayed at any concurrency produces bit-identical reports.
func RoundRand(seed uint64, round, userIdx int) *rand.Rand {
	return dist.SubStream(dist.Mix(seed, roundRandLabel, uint64(round)), uint64(userIdx))
}

// fingerprint digests every parameter that shapes accumulated state and
// public randomness. The constant 0 fills the word a settable vote
// threshold held, so snapshots and checkpoints that carry the digest still
// match.
func (e *Engine) fingerprint() uint64 {
	return proto.Fingerprint("ldphh/interactive.Engine/v1",
		uint64(e.p.Mode), math.Float64bits(e.p.Eps), uint64(e.p.N), uint64(e.p.ItemBytes),
		uint64(e.rounds), bitsPerRound, uint64(e.p.TopK), uint64(e.survivorCap),
		0, e.p.Seed)
}

// Fingerprint returns the engine's parameter digest (the checkpoint-file
// and snapshot compatibility key).
func (e *Engine) Fingerprint() uint64 { return e.fp }

// openRound installs cands as round r's candidate set with a fresh
// accumulator. cands must already be canonical.
func (e *Engine) openRound(r int, cands [][]byte) error {
	hist, err := freqoracle.NewDirectHistogram(e.p.Eps, len(cands)+1)
	if err != nil {
		return err
	}
	e.round = r
	e.cands = cands
	e.hist = hist
	e.roundReports = 0
	e.done = false
	e.estimates = nil
	return nil
}

// prefixOf returns the first bits bits of item as a canonical prefix:
// ceil(bits/8) bytes with trailing bits of the last byte zeroed.
func prefixOf(item []byte, bits int) []byte {
	nb := (bits + 7) / 8
	p := make([]byte, nb)
	copy(p, item[:nb])
	if rem := bits % 8; rem != 0 {
		p[nb-1] &= byte(0xFF << (8 - rem))
	}
	return p
}

// candidateIndex binary-searches the canonical candidate list for prefix,
// returning (index, true) or (len, false) — the "other" ordinal — on miss.
func (e *Engine) candidateIndex(prefix []byte) (int, bool) {
	i := sort.Search(len(e.cands), func(j int) bool {
		return bytes.Compare(e.cands[j], prefix) >= 0
	})
	if i < len(e.cands) && bytes.Equal(e.cands[i], prefix) {
		return i, true
	}
	return len(e.cands), false
}

// Report computes user userIdx's message for the open round. Users outside
// the round's group get ErrNotInRound and stay silent; users whose prefix
// misses the candidate set report the "other" ordinal — they still spend
// their (only) report, so participation never reveals candidate membership.
func (e *Engine) Report(item []byte, userIdx int, rng *rand.Rand) (RoundReport, error) {
	if e.done {
		return RoundReport{}, errors.New("interactive: Report after the final round committed")
	}
	if len(item) != e.p.ItemBytes {
		return RoundReport{}, fmt.Errorf("interactive: item is %d bytes, want %d", len(item), e.p.ItemBytes)
	}
	if g := e.Group(userIdx); g != e.round {
		return RoundReport{}, fmt.Errorf("%w: user %d is in group %d, round %d is open", ErrNotInRound, userIdx, g, e.round)
	}
	idx, _ := e.candidateIndex(prefixOf(item, e.bitsAt(e.round)))
	rep, err := e.hist.Report(uint64(idx), rng)
	if err != nil {
		return RoundReport{}, err
	}
	return RoundReport{Round: e.round, Col: rep.Col, Bit: rep.Bit}, nil
}

// Absorb folds one round report into the open round's accumulator. Reports
// for any round but the open one are rejected — late or early arrivals
// cannot silently poison a different round's tally.
func (e *Engine) Absorb(rep RoundReport) error {
	if e.done {
		return errors.New("interactive: Absorb after the final round committed")
	}
	if rep.Round != e.round {
		return fmt.Errorf("interactive: report for round %d, round %d is open", rep.Round, e.round)
	}
	if err := e.hist.Absorb(freqoracle.DirectReport{Col: rep.Col, Bit: rep.Bit}); err != nil {
		return err
	}
	e.roundReports++
	e.absorbed++
	return nil
}

// threshold returns the FedTrie vote threshold θ in population units for
// the just-closed round: the β = 0.05 error envelope of the round's oracle
// scaled to population counts.
func (e *Engine) threshold(scale float64) float64 {
	if e.roundReports == 0 {
		return math.Inf(1)
	}
	return scale * e.hist.ErrorBound(e.roundReports, thresholdBeta)
}

// AdvanceRound finalizes the open round and opens the next one (or commits
// the final answer), returning the new broadcast state. Validate-then-
// commit: finalizing only derives a view from the round's counters, so any
// failure leaves the open round absorbing exactly as before.
func (e *Engine) AdvanceRound() (proto.RoundState, error) {
	if e.done {
		return proto.RoundState{}, errors.New("interactive: AdvanceRound after the final round committed")
	}
	scale := 1.0
	if e.roundReports > 0 {
		scale = float64(e.p.N) / float64(e.roundReports)
	}
	theta := e.threshold(scale)
	e.hist.Finalize()
	view := e.hist.HistogramView() // len(cands)+1; the last cell is "other"

	// Prune on the population-scaled votes. Survivor order is a strict
	// total order in both modes, so the transition is reproducible from
	// the tally alone.
	type scored struct {
		prefix []byte
		vote   float64
	}
	var survivors []scored
	for i, c := range e.cands {
		v := scale * view[i]
		keep := v > 0
		if e.p.Mode == ModeFedTrie {
			keep = v >= theta
		}
		if keep {
			survivors = append(survivors, scored{c, v})
		}
	}
	sort.Slice(survivors, func(a, b int) bool {
		if survivors[a].vote != survivors[b].vote {
			return survivors[a].vote > survivors[b].vote
		}
		return bytes.Compare(survivors[a].prefix, survivors[b].prefix) < 0
	})
	if len(survivors) > e.survivorCap {
		survivors = survivors[:e.survivorCap]
	}

	last := e.round == e.rounds-1
	if last || len(survivors) == 0 {
		// Commit the final answer: survivors carry full-width prefixes on
		// the last round (bitsAt(Rounds-1) == bits). An early empty round
		// ends discovery with an empty answer — nothing survived to extend.
		est := make([]proto.Estimate, 0, len(survivors))
		for _, s := range survivors {
			if !last {
				break // pruned-out mid-protocol: no full-width items exist
			}
			est = append(est, proto.Estimate{Item: s.prefix, Count: s.vote})
		}
		if e.p.Mode == ModePEM && len(est) > e.p.TopK {
			est = est[:e.p.TopK]
		}
		e.done = true
		e.estimates = est
		e.cands = nil
		e.hist = nil
		e.roundReports = 0
		return e.RoundState(), nil
	}

	// Extend each survivor by the next step's bits; survivors re-sorted to
	// canonical (ascending) order first so the extended list is canonical by
	// construction.
	sort.Slice(survivors, func(a, b int) bool {
		return bytes.Compare(survivors[a].prefix, survivors[b].prefix) < 0
	})
	prefixes := make([][]byte, len(survivors))
	for i, s := range survivors {
		prefixes[i] = s.prefix
	}
	next := make([][]byte, 0, len(prefixes)<<(e.bitsAt(e.round+1)-e.bitsAt(e.round)))
	for _, p := range prefixes {
		next = extendPrefixes(next, e.bitsAt(e.round), e.bitsAt(e.round+1), p)
	}
	if err := e.openRound(e.round+1, next); err != nil {
		return proto.RoundState{}, err
	}
	return e.RoundState(), nil
}

// extendPrefixes appends every (to−from)-bit extension of prefix (given at
// width from bits) to dst at width to bits, MSB-first so ascending extension
// values keep byte order ascending. A nil prefix at from = 0 extends the
// empty prefix (round 0 initialization).
func extendPrefixes(dst [][]byte, from, to int, prefix ...[]byte) [][]byte {
	var base []byte
	if len(prefix) > 0 {
		base = prefix[0]
	}
	nb := (to + 7) / 8
	d := to - from
	for val := 0; val < 1<<d; val++ {
		c := make([]byte, nb)
		copy(c, base)
		for j := 0; j < d; j++ {
			if val>>(d-1-j)&1 == 1 {
				pos := from + j
				c[pos/8] |= 0x80 >> (pos % 8)
			}
		}
		dst = append(dst, c)
	}
	return dst
}

// RoundState returns the open round's broadcast state (or the terminal Done
// state): candidates are deep-copied so callers can hold them across an
// advance.
func (e *Engine) RoundState() proto.RoundState {
	rs := proto.RoundState{
		Round:        e.round,
		Rounds:       e.rounds,
		PrefixBits:   e.bitsAt(e.round),
		Done:         e.done,
		GroupReports: e.roundReports,
	}
	if !e.done {
		rs.Candidates = make([][]byte, len(e.cands))
		for i, c := range e.cands {
			rs.Candidates[i] = append([]byte(nil), c...)
		}
	}
	return rs
}

// validateCandidates checks a broadcast candidate set is canonical for the
// given width: non-empty, each entry ceil(bits/8) bytes with trailing bits
// zero, strictly increasing, and within the per-round domain bound.
func validateCandidates(cands [][]byte, bits int) error {
	if len(cands) == 0 {
		return errors.New("interactive: empty candidate set")
	}
	if len(cands) >= maxRoundDomain {
		return fmt.Errorf("interactive: %d candidates exceed the per-round bound %d", len(cands), maxRoundDomain)
	}
	nb := (bits + 7) / 8
	var mask byte
	if rem := bits % 8; rem != 0 {
		mask = byte(0xFF >> rem)
	}
	for i, c := range cands {
		if len(c) != nb {
			return fmt.Errorf("interactive: candidate %d is %d bytes, want %d for %d bits", i, len(c), nb, bits)
		}
		if mask != 0 && c[nb-1]&mask != 0 {
			return fmt.Errorf("interactive: candidate %d has nonzero bits beyond width %d", i, bits)
		}
		if i > 0 && bytes.Compare(cands[i-1], c) >= 0 {
			return fmt.Errorf("interactive: candidates not strictly increasing at %d", i)
		}
	}
	return nil
}

// SetRoundState installs a server broadcast: devices call it (directly or
// through the facade/wire client) before computing a round report, and tree
// deployments use it to provision fresh per-round leaf aggregators. The
// state must match this engine's schedule exactly; installing a Done state
// is rejected. Commit resets the round accumulator — a leaf provisioned
// this way starts the round empty.
func (e *Engine) SetRoundState(rs proto.RoundState) error {
	if rs.Done {
		return errors.New("interactive: cannot install a Done round state")
	}
	if rs.Rounds != e.rounds {
		return fmt.Errorf("interactive: broadcast is for %d rounds, engine has %d", rs.Rounds, e.rounds)
	}
	if rs.Round < 0 || rs.Round >= e.rounds {
		return fmt.Errorf("interactive: broadcast round %d outside [0,%d)", rs.Round, e.rounds)
	}
	if want := e.bitsAt(rs.Round); rs.PrefixBits != want {
		return fmt.Errorf("interactive: broadcast width %d bits, schedule says round %d is %d bits", rs.PrefixBits, rs.Round, want)
	}
	if err := validateCandidates(rs.Candidates, rs.PrefixBits); err != nil {
		return err
	}
	cands := make([][]byte, len(rs.Candidates))
	for i, c := range rs.Candidates {
		cands[i] = append([]byte(nil), c...)
	}
	return e.openRound(rs.Round, cands)
}

// Identify returns the final population-scaled estimates, sorted count
// descending (ties by ascending item bytes). It errors until the final
// round has committed — interactive protocols end by advancing, not by a
// server-side reconstruction.
func (e *Engine) Identify() ([]proto.Estimate, error) {
	if !e.done {
		return nil, fmt.Errorf("interactive: round %d of %d still open; advance rounds to completion before Identify",
			e.round, e.rounds)
	}
	out := make([]proto.Estimate, len(e.estimates))
	for i, est := range e.estimates {
		out[i] = proto.Estimate{Item: append([]byte(nil), est.Item...), Count: est.Count}
	}
	return out, nil
}

// Done reports whether the final round has committed.
func (e *Engine) Done() bool { return e.done }

// TotalReports returns the report count absorbed across all rounds.
func (e *Engine) TotalReports() int { return e.absorbed }

// SketchBytes returns resident server memory: the open round's oracle plus
// the candidate list (or the final estimates once done).
func (e *Engine) SketchBytes() int {
	b := 0
	if e.hist != nil {
		b += e.hist.SketchBytes()
	}
	for _, c := range e.cands {
		b += len(c)
	}
	for _, est := range e.estimates {
		b += len(est.Item) + 8
	}
	return b
}

// MinRecoverableFrequency returns the population-scaled per-round error
// envelope at β = 0.05: the smallest count the protocol reliably carries
// through every pruning step, assuming balanced groups of N/g users.
func (e *Engine) MinRecoverableFrequency() float64 {
	groupN := e.p.N / e.rounds
	if groupN < 1 {
		groupN = 1
	}
	ceps := (math.Exp(e.p.Eps) + 1) / (math.Exp(e.p.Eps) - 1)
	envelope := ceps * math.Sqrt(2*float64(groupN)*math.Log(2/thresholdBeta))
	return float64(e.p.N) / float64(groupN) * envelope
}
