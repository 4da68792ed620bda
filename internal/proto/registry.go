package proto

import (
	"fmt"
	"sort"
	"sync"
)

// Codec describes one protocol's wire encoding: the registry entry behind a
// protocol ID byte. Every codec in this repository is fixed-size — a
// protocol's report payload is the same length for every user — which is
// what lets the TCP server stream reports with no per-frame length prefix.
// A codec carries identity and frame size only: Adapter checks a frame's
// header and length, and the kind's Kernel checks the payload as it folds
// it in, so every frame is checked once, on the path that absorbs it.
type Codec struct {
	// ID is the registry key and the first byte of every report.
	ID byte
	// Name is the stable lowercase handle used by command-line flags and
	// ldphh.ParseKind ("pes", "bitstogram", ...).
	Name string
	// Version is the codec version stamped into byte 1 of every report.
	// Bump it when the payload layout changes; decoders reject other
	// versions.
	Version byte
	// PayloadBytes is the fixed payload length. The full wire frame is
	// FrameBytes = 2 + PayloadBytes.
	PayloadBytes int
}

// FrameBytes returns the full on-the-wire frame length of one report:
// the 2-byte [ID][version] header plus the fixed payload.
func (c Codec) FrameBytes() int { return headerBytes + c.PayloadBytes }

var (
	regMu  sync.RWMutex
	byID   = make(map[byte]Codec)
	byName = make(map[string]Codec)
)

// Register installs a codec in the registry. Protocol packages call it from
// init; it panics on a malformed codec or an ID/name collision, which is a
// programming error, not a runtime condition.
func Register(c Codec) {
	if c.ID == IDWildcard {
		panic("proto: cannot register the wildcard ID")
	}
	if c.Name == "" || c.PayloadBytes <= 0 {
		panic(fmt.Sprintf("proto: malformed codec registration %+v", c))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if prev, dup := byID[c.ID]; dup {
		panic(fmt.Sprintf("proto: codec ID %#02x already registered as %q", c.ID, prev.Name))
	}
	if _, dup := byName[c.Name]; dup {
		panic(fmt.Sprintf("proto: codec name %q already registered", c.Name))
	}
	byID[c.ID] = c
	byName[c.Name] = c
}

// Lookup returns the codec registered under the protocol ID.
func Lookup(id byte) (Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byID[id]
	return c, ok
}

// LookupName returns the codec registered under the stable name.
func LookupName(name string) (Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byName[name]
	return c, ok
}

// Codecs returns every registered codec, sorted by ID.
func Codecs() []Codec {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Codec, 0, len(byID))
	for _, c := range byID {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CheckHeader verifies that a wire report belongs to the protocol with the
// given registered ID and version and has the codec's exact frame length —
// the check proto.Adapter runs on every frame, for callers that decode
// outside an adapter.
func CheckHeader(w WireReport, id byte) error {
	c, ok := Lookup(id)
	if !ok {
		return fmt.Errorf("proto: protocol ID %#02x is not registered", id)
	}
	return c.checkHeader(w)
}

// checkHeader verifies a report's protocol ID, frame length and version
// against the codec. The ID comes first, so a report of another registered
// kind is named as such whatever its length.
func (c *Codec) checkHeader(w WireReport) error {
	if len(w) > 0 && w[0] != c.ID {
		if other, ok := Lookup(w[0]); ok {
			return fmt.Errorf("proto: %s report sent to a %s aggregator", other.Name, c.Name)
		}
		return fmt.Errorf("proto: report protocol ID %#02x, want %#02x (%s)", w[0], c.ID, c.Name)
	}
	if len(w) != c.FrameBytes() {
		return fmt.Errorf("proto: %s report length %d, want %d", c.Name, len(w), c.FrameBytes())
	}
	if w[1] != c.Version {
		return fmt.Errorf("proto: %s report version %d, want %d", c.Name, w[1], c.Version)
	}
	return nil
}
