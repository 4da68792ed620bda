package baseline

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"ldphh/internal/freqoracle"
	"ldphh/internal/proto"
)

// Wire codecs for the three Table 1 baselines (big endian).
//
// Bitstogram payload (16 bytes): rep u16 | bit-position u16 |
// DirectReport (5) | HashtogramReport (7).
//
// TreeHist payload (16 bytes): level u16 | prefix HashtogramReport (7) |
// confirmation HashtogramReport (7).
//
// BassilySmith payload (5 bytes): projection row u32 | ±1 bit byte.
const (
	bitstogramWireVersion   = 1
	treeHistWireVersion     = 1
	bassilySmithWireVersion = 1

	bitstogramPayloadBytes   = 2 + 2 + freqoracle.DirectReportPayloadBytes + freqoracle.HashtogramReportPayloadBytes
	treeHistPayloadBytes     = 2 + 2*freqoracle.HashtogramReportPayloadBytes
	bassilySmithPayloadBytes = 4 + 1
)

func init() {
	proto.Register(proto.Codec{
		ID:           proto.IDBitstogram,
		Name:         "bitstogram",
		Version:      bitstogramWireVersion,
		PayloadBytes: bitstogramPayloadBytes,
	})
	proto.Register(proto.Codec{
		ID:           proto.IDTreeHist,
		Name:         "treehist",
		Version:      treeHistWireVersion,
		PayloadBytes: treeHistPayloadBytes,
	})
	proto.Register(proto.Codec{
		ID:           proto.IDBassilySmith,
		Name:         "bassilysmith",
		Version:      bassilySmithWireVersion,
		PayloadBytes: bassilySmithPayloadBytes,
	})
}

func appendBitstogramPayload(dst []byte, rep BitstogramReport) ([]byte, error) {
	if rep.Rep < 0 || rep.Rep > 0xffff {
		return nil, fmt.Errorf("baseline: repetition %d does not fit the frame", rep.Rep)
	}
	if rep.Bit < 0 || rep.Bit > 0xffff {
		return nil, fmt.Errorf("baseline: bit position %d does not fit the frame", rep.Bit)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(rep.Rep))
	dst = binary.BigEndian.AppendUint16(dst, uint16(rep.Bit))
	dst = freqoracle.AppendDirectReport(dst, rep.Dir)
	return freqoracle.AppendHashtogramReport(dst, rep.Conf)
}

func decodeBitstogramPayload(p []byte) (BitstogramReport, error) {
	if len(p) != bitstogramPayloadBytes {
		return BitstogramReport{}, fmt.Errorf("baseline: bitstogram payload length %d, want %d", len(p), bitstogramPayloadBytes)
	}
	dir, err := freqoracle.DecodeDirectReport(p[4 : 4+freqoracle.DirectReportPayloadBytes])
	if err != nil {
		return BitstogramReport{}, err
	}
	conf, err := freqoracle.DecodeHashtogramReport(p[4+freqoracle.DirectReportPayloadBytes:])
	if err != nil {
		return BitstogramReport{}, err
	}
	return BitstogramReport{
		Rep:  int(binary.BigEndian.Uint16(p)),
		Bit:  int(binary.BigEndian.Uint16(p[2:])),
		Dir:  dir,
		Conf: conf,
	}, nil
}

func appendTreeHistPayload(dst []byte, rep TreeHistReport) ([]byte, error) {
	if rep.Level < 0 || rep.Level > 0xffff {
		return nil, fmt.Errorf("baseline: level %d does not fit the frame", rep.Level)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(rep.Level))
	dst, err := freqoracle.AppendHashtogramReport(dst, rep.Pref)
	if err != nil {
		return nil, err
	}
	return freqoracle.AppendHashtogramReport(dst, rep.Conf)
}

func decodeTreeHistPayload(p []byte) (TreeHistReport, error) {
	if len(p) != treeHistPayloadBytes {
		return TreeHistReport{}, fmt.Errorf("baseline: treehist payload length %d, want %d", len(p), treeHistPayloadBytes)
	}
	pref, err := freqoracle.DecodeHashtogramReport(p[2 : 2+freqoracle.HashtogramReportPayloadBytes])
	if err != nil {
		return TreeHistReport{}, err
	}
	conf, err := freqoracle.DecodeHashtogramReport(p[2+freqoracle.HashtogramReportPayloadBytes:])
	if err != nil {
		return TreeHistReport{}, err
	}
	return TreeHistReport{Level: int(binary.BigEndian.Uint16(p)), Pref: pref, Conf: conf}, nil
}

func appendBassilySmithPayload(dst []byte, rep BassilySmithReport) ([]byte, error) {
	if rep.Row < 0 || int64(rep.Row) > int64(^uint32(0)) {
		return nil, fmt.Errorf("baseline: projection row %d does not fit the frame", rep.Row)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(rep.Row))
	return append(dst, freqoracle.EncodeBit(rep.Bit)), nil
}

func decodeBassilySmithPayload(p []byte) (BassilySmithReport, error) {
	if len(p) != bassilySmithPayloadBytes {
		return BassilySmithReport{}, fmt.Errorf("baseline: bassilysmith payload length %d, want %d", len(p), bassilySmithPayloadBytes)
	}
	bit, err := freqoracle.DecodeBit(p[4])
	if err != nil {
		return BassilySmithReport{}, err
	}
	return BassilySmithReport{Row: int(binary.BigEndian.Uint32(p)), Bit: bit}, nil
}

// BitstogramWire adapts the [3]-style protocol to the unified
// proto.Reporter/Aggregator surface. The underlying Bitstogram has no
// internal locking; the embedded proto.Adapter serializes every call on its
// own mutex.
type BitstogramWire struct {
	proto.Adapter
	b *Bitstogram
}

// NewBitstogramWire constructs the protocol and its adapter.
func NewBitstogramWire(params BitstogramParams) (*BitstogramWire, error) {
	b, err := NewBitstogram(params)
	if err != nil {
		return nil, err
	}
	return &BitstogramWire{Adapter: proto.NewAdapter(proto.IDBitstogram, bitstogramKernel{b}), b: b}, nil
}

// bitstogramKernel is BitstogramWire's proto.Kernel.
type bitstogramKernel struct{ *Bitstogram }

func (k bitstogramKernel) AbsorbPayload(p []byte) error {
	rep, err := decodeBitstogramPayload(p)
	if err != nil {
		return err
	}
	return k.Absorb(rep)
}

// Identify reconstructs and confirms candidates, keeping every
// non-negative estimate.
func (k bitstogramKernel) Identify(context.Context) ([]proto.Estimate, error) {
	return k.Bitstogram.Identify(0)
}

// Bitstogram exposes the wrapped protocol.
func (w *BitstogramWire) Bitstogram() *Bitstogram { return w.b }

// Report computes user userIdx's wire report for item x.
func (w *BitstogramWire) Report(x []byte, userIdx int, rng *rand.Rand) (proto.WireReport, error) {
	rep, err := w.b.Report(x, userIdx, rng)
	if err != nil {
		return nil, err
	}
	dst := proto.AppendHeader(make([]byte, 0, 2+bitstogramPayloadBytes), proto.IDBitstogram, bitstogramWireVersion)
	dst, err = appendBitstogramPayload(dst, rep)
	if err != nil {
		return nil, err
	}
	return proto.WireReport(dst), nil
}

// MinRecoverableFrequency forwards the configuration's recovery floor.
func (w *BitstogramWire) MinRecoverableFrequency() float64 {
	return w.b.MinRecoverableFrequency()
}

// TreeHistWire adapts the prefix-tree baseline to the unified surface; the
// embedded proto.Adapter adds the locking the bare protocol lacks.
type TreeHistWire struct {
	proto.Adapter
	t *TreeHist
}

// NewTreeHistWire constructs the protocol and its adapter.
func NewTreeHistWire(params TreeHistParams) (*TreeHistWire, error) {
	t, err := NewTreeHist(params)
	if err != nil {
		return nil, err
	}
	return &TreeHistWire{Adapter: proto.NewAdapter(proto.IDTreeHist, treeHistKernel{t}), t: t}, nil
}

// treeHistKernel is TreeHistWire's proto.Kernel.
type treeHistKernel struct{ *TreeHist }

func (k treeHistKernel) AbsorbPayload(p []byte) error {
	rep, err := decodeTreeHistPayload(p)
	if err != nil {
		return err
	}
	return k.Absorb(rep)
}

// Identify walks the prefix tree and confirms survivors.
func (k treeHistKernel) Identify(context.Context) ([]proto.Estimate, error) {
	return k.TreeHist.Identify()
}

// TreeHist exposes the wrapped protocol.
func (w *TreeHistWire) TreeHist() *TreeHist { return w.t }

// Report computes user userIdx's wire report for item x.
func (w *TreeHistWire) Report(x []byte, userIdx int, rng *rand.Rand) (proto.WireReport, error) {
	rep, err := w.t.Report(x, userIdx, rng)
	if err != nil {
		return nil, err
	}
	dst := proto.AppendHeader(make([]byte, 0, 2+treeHistPayloadBytes), proto.IDTreeHist, treeHistWireVersion)
	dst, err = appendTreeHistPayload(dst, rep)
	if err != nil {
		return nil, err
	}
	return proto.WireReport(dst), nil
}

// MinRecoverableFrequency forwards the configuration's recovery floor.
func (w *TreeHistWire) MinRecoverableFrequency() float64 {
	return w.t.MinRecoverableFrequency()
}

// BassilySmithWire adapts the [4]-style succinct histogram to the unified
// surface over items that are width-ItemBytes encodings of domain ordinals.
// The embedded proto.Adapter serializes every call on its own mutex.
type BassilySmithWire struct {
	proto.Adapter
	bs *BassilySmith
}

// NewBassilySmithWire constructs the protocol and its adapter.
func NewBassilySmithWire(params BassilySmithParams) (*BassilySmithWire, error) {
	bs, err := NewBassilySmith(params)
	if err != nil {
		return nil, err
	}
	return &BassilySmithWire{Adapter: proto.NewAdapter(proto.IDBassilySmith, bassilySmithKernel{bs}), bs: bs}, nil
}

// bassilySmithKernel is BassilySmithWire's proto.Kernel.
type bassilySmithKernel struct{ *BassilySmith }

func (k bassilySmithKernel) AbsorbPayload(p []byte) error {
	rep, err := decodeBassilySmithPayload(p)
	if err != nil {
		return err
	}
	return k.Absorb(rep)
}

// Identify runs the exhaustive O(|X|·Proj) scan, floored at the β = 0.05
// error bound: without a floor it would emit a domain-sized list of noise.
// This is the one super-linear Identify in the repository, so it honors
// context cancellation periodically mid-scan, not just on entry; the scan
// only reads the state, so a cancelled one leaves the round open.
func (k bassilySmithKernel) Identify(ctx context.Context) ([]proto.Estimate, error) {
	return k.IdentifyContext(ctx, k.ErrorBound(0.05))
}

// BassilySmith exposes the wrapped protocol.
func (w *BassilySmithWire) BassilySmith() *BassilySmith { return w.bs }

// Report computes user userIdx's wire report for item x.
func (w *BassilySmithWire) Report(x []byte, userIdx int, rng *rand.Rand) (proto.WireReport, error) {
	v, err := freqoracle.OrdinalOf(x, w.bs.p.ItemBytes, w.bs.p.DomainSize)
	if err != nil {
		return nil, err
	}
	rep, err := w.bs.Report(v, userIdx, rng)
	if err != nil {
		return nil, err
	}
	dst := proto.AppendHeader(make([]byte, 0, 2+bassilySmithPayloadBytes), proto.IDBassilySmith, bassilySmithWireVersion)
	dst, err = appendBassilySmithPayload(dst, rep)
	if err != nil {
		return nil, err
	}
	return proto.WireReport(dst), nil
}

// MinRecoverableFrequency reports the protocol's β = 0.05 error bound.
func (w *BassilySmithWire) MinRecoverableFrequency() float64 { return w.bs.ErrorBound(0.05) }
