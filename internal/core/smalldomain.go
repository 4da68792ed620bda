package core

import (
	"fmt"
	"math/rand/v2"

	"ldphh/internal/freqoracle"
)

// SmallDomain is the complementary protocol the paper notes after
// Theorem 3.13: when n > |X| (or |X| is simply small enough to enumerate),
// skip the expander machinery entirely — run the Theorem 3.8 DirectHistogram
// over the whole domain at full budget ε and read every frequency off the
// reconstructed histogram. Same O~(1) user cost; server memory O(|X|).
type SmallDomain struct {
	eps       float64
	itemBytes int
	domain    int
	direct    *freqoracle.DirectHistogram
}

// NewSmallDomain constructs the enumerable-domain protocol for items that
// are width-itemBytes encodings of ordinals [0, domainSize).
func NewSmallDomain(eps float64, itemBytes, domainSize int) (*SmallDomain, error) {
	if itemBytes < 1 || itemBytes > 8 {
		return nil, fmt.Errorf("core: SmallDomain supports ItemBytes in [1,8], got %d", itemBytes)
	}
	if domainSize < 2 {
		return nil, fmt.Errorf("core: SmallDomain needs domainSize >= 2, got %d", domainSize)
	}
	if itemBytes < 8 && uint64(domainSize) > uint64(1)<<(8*itemBytes) {
		return nil, fmt.Errorf("core: domainSize %d exceeds the item width", domainSize)
	}
	d, err := freqoracle.NewDirectHistogram(eps, domainSize)
	if err != nil {
		return nil, err
	}
	return &SmallDomain{eps: eps, itemBytes: itemBytes, domain: domainSize, direct: d}, nil
}

// ordinal converts an item to its domain ordinal.
func (s *SmallDomain) ordinal(x []byte) (uint64, error) {
	return freqoracle.OrdinalOf(x, s.itemBytes, s.domain)
}

// Report computes one user's ε-LDP message.
func (s *SmallDomain) Report(x []byte, rng *rand.Rand) (freqoracle.DirectReport, error) {
	v, err := s.ordinal(x)
	if err != nil {
		return freqoracle.DirectReport{}, err
	}
	return s.direct.Report(v, rng)
}

// Absorb folds one report into the server state.
func (s *SmallDomain) Absorb(rep freqoracle.DirectReport) error {
	return s.direct.Absorb(rep)
}

// Identify reconstructs the full histogram and returns every item whose
// estimate reaches minCount, sorted by decreasing estimate.
func (s *SmallDomain) Identify(minCount float64) []Estimate {
	return s.direct.IdentifyOrdinals(s.itemBytes, minCount)
}

// EstimateFrequency answers a point query after Identify.
func (s *SmallDomain) EstimateFrequency(x []byte) float64 {
	v, err := s.ordinal(x)
	if err != nil {
		return 0
	}
	return s.direct.Estimate(v)
}

// ErrorBound forwards the Theorem 3.8 per-query bound.
func (s *SmallDomain) ErrorBound(n int, beta float64) float64 {
	return s.direct.ErrorBound(n, beta)
}

// TotalReports returns the number of absorbed reports.
func (s *SmallDomain) TotalReports() int { return s.direct.TotalReports() }

// SketchBytes returns resident server memory: O(|X|).
func (s *SmallDomain) SketchBytes() int { return s.direct.SketchBytes() }

// BytesPerReport returns the payload size of one user message (a bare
// DirectReport).
func (s *SmallDomain) BytesPerReport() int { return freqoracle.DirectReportPayloadBytes }
