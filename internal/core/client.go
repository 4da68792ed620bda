package core

import (
	"fmt"
	"math/rand/v2"
)

// Client is the user-side half of PrivateExpanderSketch. It is constructed
// from the same Params the server uses — the Seed pins all shared public
// randomness, so a client built on a device and a server built in the
// aggregation service agree on every hash function and code without
// exchanging anything beyond Params. The client holds no other user's
// data, but it is not small: NewClient builds a whole Protocol, empty
// server counters included, so its memory is the server's SketchBytes
// (about 256 MiB at ε = 4, N = 10^6 and 4-byte items).
type Client struct {
	proto *Protocol
}

// NewClient derives the client side from params. The construction is
// deterministic in params (including Seed).
func NewClient(params Params) (*Client, error) {
	proto, err := New(params)
	if err != nil {
		return nil, err
	}
	return &Client{proto: proto}, nil
}

// Params returns the defaulted parameters.
func (c *Client) Params() Params { return c.proto.Params() }

// Report computes user userIdx's single ε-LDP message for item x.
func (c *Client) Report(x []byte, userIdx int, rng *rand.Rand) (Report, error) {
	return c.proto.Report(x, userIdx, rng)
}

// MinRecoverableFrequency forwards the configuration's recovery floor so a
// device can decide participation policy.
func (c *Client) MinRecoverableFrequency() float64 {
	return c.proto.Params().MinRecoverableFrequency()
}

// HeavyHitters returns the Definition 3.1 view of the identification output:
// only items whose confirmed estimate reaches delta, truncated to the
// definition's O(n/delta) list-size bound (keeping the largest estimates).
// Call after building est with Identify.
func HeavyHitters(est []Estimate, n int, delta float64) ([]Estimate, error) {
	if delta <= 0 {
		return nil, fmt.Errorf("core: delta must be positive, got %v", delta)
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: n must be positive, got %d", n)
	}
	// est arrives sorted by decreasing count (Identify's contract).
	for i := 1; i < len(est); i++ {
		if est[i].Count > est[i-1].Count {
			return nil, fmt.Errorf("core: estimates not sorted by decreasing count")
		}
	}
	var out []Estimate
	for _, e := range est {
		if e.Count >= delta {
			out = append(out, e)
		}
	}
	// |L| <= 2n/delta: at most n/ (delta/2) items can have true frequency
	// delta/2, and estimates concentrate; cap defensively at 2n/delta.
	maxLen := int(2 * float64(n) / delta)
	if maxLen < 1 {
		maxLen = 1
	}
	if len(out) > maxLen {
		out = out[:maxLen]
	}
	return out, nil
}
