package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"ldphh/internal/freqoracle"
	"ldphh/internal/proto"
)

// Wire codecs for the two protocols this package owns.
//
// PrivateExpanderSketch payload (big endian, ReportPayloadBytes = 14):
//
//	offset size field
//	0      2    coordinate group m
//	2      4    direct-report column
//	6      1    direct-report bit (0 => -1, 1 => +1)
//	7      2    confirmation row
//	9      4    confirmation column
//	13     1    confirmation bit
//
// SmallDomain payload is a bare freqoracle.DirectReport (5 bytes).
const (
	pesWireVersion         = 1
	smallDomainWireVersion = 1
)

func init() {
	proto.Register(proto.Codec{
		ID:           proto.IDPrivateExpanderSketch,
		Name:         "pes",
		Version:      pesWireVersion,
		PayloadBytes: ReportPayloadBytes,
	})
	proto.Register(proto.Codec{
		ID:           proto.IDSmallDomain,
		Name:         "smalldomain",
		Version:      smallDomainWireVersion,
		PayloadBytes: freqoracle.DirectReportPayloadBytes,
	})
}

// AppendReportPayload appends the 14-byte PES report payload to dst.
func AppendReportPayload(dst []byte, rep Report) ([]byte, error) {
	if rep.M < 0 || rep.M > 0xffff {
		return nil, fmt.Errorf("core: group %d does not fit the frame", rep.M)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(rep.M))
	dst = freqoracle.AppendDirectReport(dst, rep.Dir)
	return freqoracle.AppendHashtogramReport(dst, rep.Conf)
}

// DecodeReportPayload parses a 14-byte PES report payload.
func DecodeReportPayload(p []byte) (Report, error) {
	if len(p) != ReportPayloadBytes {
		return Report{}, fmt.Errorf("core: payload length %d, want %d", len(p), ReportPayloadBytes)
	}
	dir, err := freqoracle.DecodeDirectReport(p[2 : 2+freqoracle.DirectReportPayloadBytes])
	if err != nil {
		return Report{}, err
	}
	conf, err := freqoracle.DecodeHashtogramReport(p[2+freqoracle.DirectReportPayloadBytes:])
	if err != nil {
		return Report{}, err
	}
	return Report{M: int(binary.BigEndian.Uint16(p)), Dir: dir, Conf: conf}, nil
}

// EncodeReportWire serializes a PES report into a self-describing wire
// report ([ID][version][14-byte payload]).
func EncodeReportWire(rep Report) (proto.WireReport, error) {
	dst := proto.AppendHeader(make([]byte, 0, 2+ReportPayloadBytes), proto.IDPrivateExpanderSketch, pesWireVersion)
	dst, err := AppendReportPayload(dst, rep)
	if err != nil {
		return nil, err
	}
	return proto.WireReport(dst), nil
}

// DecodeReportWire parses and validates a PES wire report.
func DecodeReportWire(wr proto.WireReport) (Report, error) {
	if err := proto.CheckHeader(wr, proto.IDPrivateExpanderSketch); err != nil {
		return Report{}, err
	}
	return DecodeReportPayload(wr.Payload())
}

// PESWire adapts PrivateExpanderSketch to the unified
// proto.Reporter/Aggregator/Mergeable surface. Each Protocol owns exactly
// one, built by New: its proto.StateAdapter holds the lock and the round
// lifecycle for adapter calls and the Protocol's typed methods alike, and
// a batch is absorbed under one acquisition of the lock. Fan-in trees go
// through MergeSnapshot instead, which adds a whole subtree's M+1 oracle
// blobs straight from the snapshot bytes.
type PESWire struct {
	proto.StateAdapter[*accumulator]
	pr *Protocol
}

// NewPESWire constructs the protocol and its adapter in one step.
func NewPESWire(params Params) (*PESWire, error) {
	pr, err := New(params)
	if err != nil {
		return nil, err
	}
	return pr.Wire(), nil
}

// newPESWire builds pr's one adapter; New calls it once the public
// randomness the fingerprint digests is drawn.
func newPESWire(pr *Protocol) *PESWire {
	v1 := binary.BigEndian.AppendUint64([]byte("LPSK\x01"), pr.Fingerprint()) // pre-envelope header
	return &PESWire{
		StateAdapter: proto.NewStateAdapter[*accumulator](proto.IDPrivateExpanderSketch, pesKernel{pr}, v1),
		pr:           pr,
	}
}

// Wire returns the protocol's unified-API adapter: the same one on every
// call.
func (pr *Protocol) Wire() *PESWire { return pr.w }

// pesKernel is PESWire's proto.StateCodec: the protocol's unlocked bodies,
// run under the adapter lock (snapshot.go has the snapshot half).
type pesKernel struct{ pr *Protocol }

func (k pesKernel) AbsorbPayload(p []byte) error {
	rep, err := DecodeReportPayload(p)
	if err != nil {
		return err
	}
	return k.pr.absorb(rep)
}

func (k pesKernel) Identify(context.Context) ([]Estimate, error) { return k.pr.identify() }
func (k pesKernel) TotalReports() int                            { return k.pr.absorbed }
func (k pesKernel) SketchBytes() int                             { return k.pr.sketchBytes() }

// Protocol exposes the wrapped instance (public randomness for clients,
// snapshot fingerprints, EstimateFrequency after Identify).
func (w *PESWire) Protocol() *Protocol { return w.pr }

// Report computes user userIdx's wire report for item x.
func (w *PESWire) Report(x []byte, userIdx int, rng *rand.Rand) (proto.WireReport, error) {
	rep, err := w.pr.Report(x, userIdx, rng)
	if err != nil {
		return nil, err
	}
	return EncodeReportWire(rep)
}

// MinRecoverableFrequency forwards the configuration's recovery floor.
func (w *PESWire) MinRecoverableFrequency() float64 {
	return w.pr.Params().MinRecoverableFrequency()
}

// SmallDomainWire is the complementary protocol the paper notes after
// Theorem 3.13: when n > |X| (or |X| is simply small enough to enumerate),
// skip the expander machinery and run the Theorem 3.8 DirectHistogram over
// the whole domain at full budget ε, reading every frequency off the
// reconstructed histogram (same O~(1) user cost, server memory O(|X|)).
// The adapter therefore *is* freqoracle.DirectHistogramWire under the
// smalldomain codec identity — one implementation, two registered
// protocols.
type SmallDomainWire struct {
	*freqoracle.DirectHistogramWire
}

// NewSmallDomainWire constructs the protocol and its adapter. n is the
// expected user count (sizing hint for the recovery floor).
func NewSmallDomainWire(eps float64, itemBytes, domainSize, n int) (*SmallDomainWire, error) {
	if domainSize < 2 {
		return nil, fmt.Errorf("core: smalldomain needs domainSize >= 2, got %d", domainSize)
	}
	w, err := freqoracle.NewDirectHistogramWireAs(
		proto.IDSmallDomain, smallDomainWireVersion, eps, itemBytes, domainSize, n)
	if err != nil {
		return nil, err
	}
	return &SmallDomainWire{DirectHistogramWire: w}, nil
}
