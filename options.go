package ldphh

import (
	"fmt"

	"ldphh/internal/baseline"
	"ldphh/internal/core"
	"ldphh/internal/freqoracle"
	"ldphh/internal/interactive"
	"ldphh/internal/proto"
	"ldphh/internal/stream"
)

// Kind selects a protocol for New. The values are the wire protocol IDs of
// the codec registry, so a Kind round-trips through ParseKind/String and
// the negotiation byte on the TCP transport.
type Kind byte

// The registered protocol kinds. PrivateExpanderSketch matches the paper's
// primary contribution; the remaining constants carry a Kind prefix because
// the bare names are taken by the concrete types (ldphh.Bitstogram,
// ldphh.TreeHist, ...) that New supersedes.
const (
	PrivateExpanderSketch = Kind(proto.IDPrivateExpanderSketch)
	KindSmallDomain       = Kind(proto.IDSmallDomain)
	KindHashtogram        = Kind(proto.IDHashtogram)
	KindDirectHistogram   = Kind(proto.IDDirectHistogram)
	KindBitstogram        = Kind(proto.IDBitstogram)
	KindTreeHist          = Kind(proto.IDTreeHist)
	KindBassilySmith      = Kind(proto.IDBassilySmith)
	KindStreamHG          = Kind(proto.IDStreamHG)
	KindPEM               = Kind(proto.IDPEM)
	KindFedTrie           = Kind(proto.IDFedTrie)
)

// String returns the kind's stable registry name ("pes", "bitstogram", ...).
func (k Kind) String() string {
	if c, ok := proto.Lookup(byte(k)); ok {
		return c.Name
	}
	return fmt.Sprintf("kind(%#02x)", byte(k))
}

// ParseKind resolves a registry name to its Kind — the inverse of String,
// for command-line flags.
func ParseKind(name string) (Kind, error) {
	c, ok := proto.LookupName(name)
	if !ok {
		names := make([]string, 0, len(proto.Codecs()))
		for _, c := range proto.Codecs() {
			names = append(names, c.Name)
		}
		return 0, fmt.Errorf("ldphh: unknown protocol %q (registered: %v)", name, names)
	}
	return Kind(c.ID), nil
}

// Kinds returns every registered protocol kind in ID order.
func Kinds() []Kind {
	codecs := proto.Codecs()
	out := make([]Kind, len(codecs))
	for i, c := range codecs {
		out[i] = Kind(c.ID)
	}
	return out
}

// config carries every option New understands; each kind reads the fields
// relevant to it.
type config struct {
	eps        float64
	n          int
	itemBytes  int
	seed       uint64
	workers    int
	y          int
	domainSize int
	candidates [][]byte
	windows    int
	topK       int
	windowSize int
}

// Option configures New.
type Option func(*config)

// WithEps sets the total privacy budget per user (required; every protocol
// rejects a non-positive ε).
func WithEps(eps float64) Option { return func(c *config) { c.eps = eps } }

// WithN sets the expected number of users (required; sizes sketches and
// recovery floors).
func WithN(n int) Option { return func(c *config) { c.n = n } }

// WithItemBytes sets the fixed item width in bytes (default 4; |X| =
// 256^ItemBytes).
func WithItemBytes(b int) Option { return func(c *config) { c.itemBytes = b } }

// WithSeed sets the public-randomness seed. A device-side and a server-side
// instance built with the same options agree on all public randomness.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithWorkers bounds the Identify worker pool (PrivateExpanderSketch; 0
// derives GOMAXPROCS), and the pool that validates a snapshot and adds it,
// straight from the snapshot bytes, on Restore and MergeSnapshot. Output
// is bit-identical at every worker count.
func WithWorkers(w int) Option { return func(c *config) { c.workers = w } }

// WithY sets the per-coordinate hash range (PrivateExpanderSketch; 0
// derives the default 512).
func WithY(y int) Option { return func(c *config) { c.y = y } }

// WithDomainSize sets |X| for the enumerable-domain kinds (KindSmallDomain,
// KindDirectHistogram, KindBassilySmith, KindStreamHG), whose items are
// width-ItemBytes encodings of ordinals [0, size). Defaults to the full
// 256^ItemBytes domain when ItemBytes <= 2; wider items require it
// explicitly.
func WithDomainSize(size int) Option { return func(c *config) { c.domainSize = size } }

// WithCandidates sets the Identify query set for the candidate-based kinds:
// protocols that cannot enumerate an open domain and instead estimate a
// known dictionary (KindHashtogram today; any future oracle-style kind
// reads the same option). The open-domain interactive kinds (KindPEM,
// KindFedTrie) reject it — discovering the candidate set round by round is
// their whole point — and the enumerable-domain kinds ignore it.
func WithCandidates(items [][]byte) Option { return func(c *config) { c.candidates = items } }

// WithWindows sets the streaming per-user budget split w (KindStreamHG;
// default 4): each report is randomized at ε/w, so a device reporting at
// most once per window spends at most ε over the stream.
func WithWindows(w int) Option { return func(c *config) { c.windows = w } }

// WithTopK sets the streaming answer size (KindStreamHG; default 16):
// Identify and parameterless QueryTopK return the k largest debiased
// estimates.
func WithTopK(k int) Option { return func(c *config) { c.topK = k } }

// WithWindowSize sets the server-side window clock for KindStreamHG: the
// window index advances every n absorbed reports (default n/windows when
// WithN is set, else 4096). The first window is the bounded structure's
// warmup phase.
func WithWindowSize(n int) Option { return func(c *config) { c.windowSize = n } }

// New constructs a protocol instance of the given kind through the unified
// proto surface: the result is both the device side (Report) and the
// server side (Absorb/Identify), and plugs directly into
// NewAggregationServer or the in-process merge trees (capability
// permitting).
//
//	hh, err := ldphh.New(ldphh.PrivateExpanderSketch,
//		ldphh.WithEps(2), ldphh.WithN(100000), ldphh.WithItemBytes(8))
//
// The legacy concrete constructors (NewHeavyHitters, NewBitstogram, ...)
// remain as thin wrappers over the same internals for callers that want
// the protocol-specific APIs.
func New(kind Kind, opts ...Option) (Protocol, error) {
	cfg := config{itemBytes: 4}
	for _, opt := range opts {
		opt(&cfg)
	}
	switch kind {
	case PrivateExpanderSketch:
		return core.NewPESWire(core.Params{
			Eps: cfg.eps, N: cfg.n, ItemBytes: cfg.itemBytes,
			Y: cfg.y, Workers: cfg.workers, Seed: cfg.seed,
		})
	case KindSmallDomain:
		size, err := cfg.domain(kind)
		if err != nil {
			return nil, err
		}
		return core.NewSmallDomainWire(cfg.eps, cfg.itemBytes, size, cfg.n)
	case KindHashtogram:
		return freqoracle.NewHashtogramWire(freqoracle.HashtogramParams{
			Eps: cfg.eps, N: cfg.n, Seed: cfg.seed,
		}, cfg.candidates)
	case KindDirectHistogram:
		size, err := cfg.domain(kind)
		if err != nil {
			return nil, err
		}
		return freqoracle.NewDirectHistogramWire(cfg.eps, cfg.itemBytes, size, cfg.n)
	case KindBitstogram:
		return baseline.NewBitstogramWire(baseline.BitstogramParams{
			Eps: cfg.eps, N: cfg.n, ItemBytes: cfg.itemBytes, Seed: cfg.seed,
		})
	case KindTreeHist:
		return baseline.NewTreeHistWire(baseline.TreeHistParams{
			Eps: cfg.eps, N: cfg.n, ItemBytes: cfg.itemBytes, Seed: cfg.seed,
		})
	case KindBassilySmith:
		size, err := cfg.domain(kind)
		if err != nil {
			return nil, err
		}
		return baseline.NewBassilySmithWire(baseline.BassilySmithParams{
			Eps: cfg.eps, N: cfg.n, ItemBytes: cfg.itemBytes,
			DomainSize: size, Seed: cfg.seed,
		})
	case KindStreamHG:
		size, err := cfg.domain(kind)
		if err != nil {
			return nil, err
		}
		windows, topK, windowSize := cfg.windows, cfg.topK, cfg.windowSize
		if windows == 0 {
			windows = 4
		}
		if topK == 0 {
			topK = 16
		}
		if windowSize == 0 {
			if cfg.n > 0 && cfg.n/windows > 0 {
				windowSize = cfg.n / windows
			} else {
				windowSize = 4096
			}
		}
		return stream.NewWire(stream.Params{
			Kind: stream.BasicHG, Eps: cfg.eps, Windows: windows, K: topK,
			Domain: size, WindowSize: windowSize, WarmupWindows: 1,
			N: cfg.n, Seed: cfg.seed,
		}, cfg.itemBytes)
	case KindPEM, KindFedTrie:
		if len(cfg.candidates) > 0 {
			return nil, fmt.Errorf("ldphh: %v discovers its candidate set over rounds; WithCandidates is not applicable", kind)
		}
		mode := interactive.ModePEM
		if kind == KindFedTrie {
			mode = interactive.ModeFedTrie
		}
		return interactive.NewWire(interactive.Params{
			Mode: mode, Eps: cfg.eps, N: cfg.n, ItemBytes: cfg.itemBytes,
			TopK: cfg.topK, Seed: cfg.seed,
		})
	default:
		return nil, fmt.Errorf("ldphh: unknown protocol kind %v", kind)
	}
}

// domain resolves the enumerable-domain size: explicit WithDomainSize, or
// the full item-width domain when that is small enough to enumerate.
func (c config) domain(kind Kind) (int, error) {
	if c.domainSize > 0 {
		return c.domainSize, nil
	}
	if c.itemBytes >= 1 && c.itemBytes <= 2 {
		return 1 << (8 * c.itemBytes), nil
	}
	return 0, fmt.Errorf("ldphh: %v over %d-byte items needs WithDomainSize (cannot enumerate 256^%d)",
		kind, c.itemBytes, c.itemBytes)
}
