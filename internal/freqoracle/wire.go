package freqoracle

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"ldphh/internal/proto"
)

// Wire payload primitives shared by every protocol whose reports are built
// from the two oracle report types. All layouts are big endian; a ±1 bit is
// one byte (0 => -1, 1 => +1).
const (
	// DirectReportPayloadBytes is a DirectReport on the wire: col u32 + bit.
	DirectReportPayloadBytes = 4 + 1
	// HashtogramReportPayloadBytes is a HashtogramReport on the wire:
	// row u16 + col u32 + bit.
	HashtogramReportPayloadBytes = 2 + 4 + 1
)

// EncodeBit maps a ±1 report bit to its wire byte.
func EncodeBit(b int8) byte {
	if b > 0 {
		return 1
	}
	return 0
}

// DecodeBit maps a wire byte back to a ±1 report bit, rejecting anything
// but the two legal encodings.
func DecodeBit(b byte) (int8, error) {
	switch b {
	case 0:
		return -1, nil
	case 1:
		return 1, nil
	default:
		return 0, fmt.Errorf("freqoracle: invalid bit byte %d", b)
	}
}

// AppendDirectReport appends the 5-byte DirectReport payload to dst.
func AppendDirectReport(dst []byte, rep DirectReport) []byte {
	dst = binary.BigEndian.AppendUint32(dst, rep.Col)
	return append(dst, EncodeBit(rep.Bit))
}

// DecodeDirectReport parses a 5-byte DirectReport payload.
func DecodeDirectReport(p []byte) (DirectReport, error) {
	if len(p) != DirectReportPayloadBytes {
		return DirectReport{}, fmt.Errorf("freqoracle: direct payload length %d, want %d", len(p), DirectReportPayloadBytes)
	}
	bit, err := DecodeBit(p[4])
	if err != nil {
		return DirectReport{}, err
	}
	return DirectReport{Col: binary.BigEndian.Uint32(p), Bit: bit}, nil
}

// AppendHashtogramReport appends the 7-byte HashtogramReport payload to dst.
func AppendHashtogramReport(dst []byte, rep HashtogramReport) ([]byte, error) {
	if rep.Row < 0 || rep.Row > 0xffff {
		return nil, fmt.Errorf("freqoracle: report row %d does not fit the frame", rep.Row)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(rep.Row))
	dst = binary.BigEndian.AppendUint32(dst, rep.Col)
	return append(dst, EncodeBit(rep.Bit)), nil
}

// DecodeHashtogramReport parses a 7-byte HashtogramReport payload.
func DecodeHashtogramReport(p []byte) (HashtogramReport, error) {
	if len(p) != HashtogramReportPayloadBytes {
		return HashtogramReport{}, fmt.Errorf("freqoracle: hashtogram payload length %d, want %d", len(p), HashtogramReportPayloadBytes)
	}
	bit, err := DecodeBit(p[6])
	if err != nil {
		return HashtogramReport{}, err
	}
	return HashtogramReport{
		Row: int(binary.BigEndian.Uint16(p)),
		Col: binary.BigEndian.Uint32(p[2:]),
		Bit: bit,
	}, nil
}

const (
	hashtogramWireVersion = 1
	directWireVersion     = 1
)

func init() {
	proto.Register(proto.Codec{
		ID:           proto.IDHashtogram,
		Name:         "hashtogram",
		Version:      hashtogramWireVersion,
		PayloadBytes: HashtogramReportPayloadBytes,
	})
	proto.Register(proto.Codec{
		ID:           proto.IDDirectHistogram,
		Name:         "directhistogram",
		Version:      directWireVersion,
		PayloadBytes: DirectReportPayloadBytes,
	})
}

// OrdinalBytes encodes a domain ordinal as a canonical big-endian item of
// the given width (the inverse of OrdinalOf).
func OrdinalBytes(x uint64, width int) []byte {
	b := make([]byte, width)
	for i := width - 1; i >= 0; i-- {
		b[i] = byte(x)
		x >>= 8
	}
	return b
}

// OrdinalOf decodes a width-checked item into its domain ordinal, rejecting
// values outside [0, domain).
func OrdinalOf(x []byte, itemBytes, domain int) (uint64, error) {
	if len(x) != itemBytes {
		return 0, fmt.Errorf("freqoracle: item length %d, want %d", len(x), itemBytes)
	}
	var v uint64
	for _, b := range x {
		v = v<<8 | uint64(b)
	}
	if v >= uint64(domain) {
		return 0, fmt.Errorf("freqoracle: item ordinal %d outside domain %d", v, domain)
	}
	return v, nil
}

// HashtogramWire adapts the Theorem 3.7 oracle to the unified
// proto.Reporter/Aggregator surface. A frequency oracle answers point
// queries, not open-ended identification, so Identify estimates an explicit
// candidate set fixed at construction (the "known dictionary" deployment —
// e.g. a URL allowlist) and returns those with a non-negative estimate. The
// oracle is not safe for concurrent use; the embedded proto.StateAdapter
// serializes every call on its own mutex and serves the snapshot
// capability, whose body is the LHSK blob. Candidates shape Identify's
// query set, never the accumulated state, so the fingerprint is the
// oracle's.
type HashtogramWire struct {
	proto.StateAdapter[[]byte]
	h *Hashtogram
}

// NewHashtogramWire constructs the adapter around a fresh oracle.
// candidates is the Identify query set (may be nil for ingest-only use, in
// which case Identify fails).
func NewHashtogramWire(params HashtogramParams, candidates [][]byte) (*HashtogramWire, error) {
	h, err := NewHashtogram(params)
	if err != nil {
		return nil, err
	}
	k := &hashtogramKernel{oracleBody: oracleBody{table: &h.table}, h: h, candidates: candidates}
	return &HashtogramWire{StateAdapter: proto.NewStateAdapter[[]byte](proto.IDHashtogram, k, nil), h: h}, nil
}

// oracleBody is the snapshot-body half of proto.StateCodec for the kinds
// whose body is one oracle blob (hashtogram, directhistogram,
// smalldomain): the decoded state is the blob itself, checked in place by
// CheckSnapshot and added straight from the snapshot bytes. The kernels
// also take TotalReports from its table.
type oracleBody struct {
	*table
	blob []byte // the blob BodyLen wrote for AppendBody, its buffer reused
}

// BodyLen writes the blob, so a snapshot reads the table's cells once;
// AppendBody then copies it out.
func (b *oracleBody) BodyLen() int {
	b.blob = b.AppendSnapshot(b.blob[:0])
	return len(b.blob)
}

func (b *oracleBody) AppendBody(dst []byte) []byte { return append(dst, b.blob...) }

func (b *oracleBody) DecodeBody(blob []byte) ([]byte, error) {
	_, err := b.CheckSnapshot(blob)
	return blob, err
}

func (b *oracleBody) Replace(blob []byte) error {
	b.Reset()
	b.AddSnapshot(blob)
	return nil
}

func (b *oracleBody) Merge(blob []byte) error {
	b.AddSnapshot(blob)
	return nil
}

// hashtogramKernel is HashtogramWire's proto.StateCodec; Fingerprint is
// the oracle's own.
type hashtogramKernel struct {
	oracleBody
	h          *Hashtogram
	candidates [][]byte
}

func (k *hashtogramKernel) Fingerprint() uint64 { return k.h.Fingerprint() }

func (k *hashtogramKernel) SketchBytes() int { return k.h.SketchBytes() }

func (k *hashtogramKernel) AbsorbPayload(p []byte) error {
	rep, err := DecodeHashtogramReport(p)
	if err != nil {
		return err
	}
	return k.h.Absorb(rep)
}

// Identify finalizes the oracle and estimates the candidate set. It fails
// before touching the oracle when there is no candidate set.
func (k *hashtogramKernel) Identify(context.Context) ([]proto.Estimate, error) {
	if len(k.candidates) == 0 {
		return nil, fmt.Errorf("freqoracle: Hashtogram Identify needs a candidate set (a frequency oracle cannot enumerate an open domain)")
	}
	k.h.Finalize()
	out := make([]proto.Estimate, 0, len(k.candidates))
	for _, c := range k.candidates {
		if est := k.h.Estimate(c); est >= 0 {
			out = append(out, proto.Estimate{Item: append([]byte(nil), c...), Count: est})
		}
	}
	proto.SortEstimates(out)
	return out, nil
}

// Oracle exposes the wrapped Hashtogram for point queries after a
// successful Identify, whose closed round refuses every write.
func (w *HashtogramWire) Oracle() *Hashtogram { return w.h }

// Report computes user userIdx's wire report for item x.
func (w *HashtogramWire) Report(x []byte, userIdx int, rng *rand.Rand) (proto.WireReport, error) {
	rep := w.h.Report(x, userIdx, rng)
	dst := proto.AppendHeader(make([]byte, 0, 2+HashtogramReportPayloadBytes), proto.IDHashtogram, hashtogramWireVersion)
	dst, err := AppendHashtogramReport(dst, rep)
	if err != nil {
		return nil, err
	}
	return proto.WireReport(dst), nil
}

// MinRecoverableFrequency reports the oracle's per-query error envelope at
// β = 0.05 — the smallest count reliably distinguishable from zero.
func (w *HashtogramWire) MinRecoverableFrequency() float64 { return w.h.ErrorBound(0.05) }

// DirectHistogramWire adapts the Theorem 3.8 oracle to the unified surface
// over items that are width-itemBytes encodings of ordinals [0, domain).
// Identify scans the whole reconstructed histogram — O(domain) — which is
// exactly the enumerable-domain regime this oracle is for. The embedded
// proto.StateAdapter serializes every call on its own mutex and serves the
// snapshot capability, whose body is the LDSK blob.
//
// The adapter is also the shared implementation behind every codec whose
// payload is a bare DirectReport: core.SmallDomainWire is this adapter
// under the smalldomain protocol identity (NewDirectHistogramWireAs).
type DirectHistogramWire struct {
	proto.StateAdapter[[]byte]
	d         *DirectHistogram
	version   byte
	itemBytes int
	n         int // sizing hint for the error envelope
}

// NewDirectHistogramWire constructs the adapter around a fresh oracle.
func NewDirectHistogramWire(eps float64, itemBytes, domain int, n int) (*DirectHistogramWire, error) {
	return NewDirectHistogramWireAs(proto.IDDirectHistogram, directWireVersion, eps, itemBytes, domain, n)
}

// NewDirectHistogramWireAs constructs the adapter under a different
// registered codec identity whose payload layout is a bare DirectReport
// (the smalldomain codec).
func NewDirectHistogramWireAs(id, version byte, eps float64, itemBytes, domain, n int) (*DirectHistogramWire, error) {
	if itemBytes < 1 || itemBytes > 8 {
		return nil, fmt.Errorf("freqoracle: DirectHistogramWire supports ItemBytes in [1,8], got %d", itemBytes)
	}
	if itemBytes < 8 && uint64(domain) > uint64(1)<<(8*itemBytes) {
		return nil, fmt.Errorf("freqoracle: domain %d exceeds the item width", domain)
	}
	d, err := NewDirectHistogram(eps, domain)
	if err != nil {
		return nil, err
	}
	k := &directKernel{oracleBody: oracleBody{table: &d.table}, d: d, id: id, itemBytes: itemBytes}
	return &DirectHistogramWire{
		StateAdapter: proto.NewStateAdapter[[]byte](id, k, nil),
		d:            d, version: version, itemBytes: itemBytes, n: n,
	}, nil
}

// directKernel is DirectHistogramWire's proto.StateCodec.
type directKernel struct {
	oracleBody
	d         *DirectHistogram
	id        byte
	itemBytes int
}

// Fingerprint mixes the codec ID and the item width into the oracle's
// digest. The snapshot envelope carries both the ID and this fingerprint,
// and LCKF checkpoint files stamp the fingerprint, so a smalldomain
// snapshot or checkpoint never loads into a directhistogram aggregator,
// even though the LDSK bodies would be byte-compatible.
func (k *directKernel) Fingerprint() uint64 {
	return proto.Fingerprint("ldphh/freqoracle.DirectHistogramWire/v1",
		uint64(k.id), uint64(k.itemBytes), k.d.Fingerprint())
}

func (k *directKernel) SketchBytes() int { return k.d.SketchBytes() }

func (k *directKernel) AbsorbPayload(p []byte) error {
	rep, err := DecodeDirectReport(p)
	if err != nil {
		return err
	}
	return k.d.Absorb(rep)
}

// Identify reconstructs the histogram and returns every ordinal with a
// non-negative estimate as a width-itemBytes item, sorted by decreasing
// estimate.
func (k *directKernel) Identify(context.Context) ([]proto.Estimate, error) {
	k.d.Finalize()
	var out []proto.Estimate
	for v, est := range k.d.HistogramView() {
		if est >= 0 {
			out = append(out, proto.Estimate{Item: OrdinalBytes(uint64(v), k.itemBytes), Count: est})
		}
	}
	proto.SortEstimates(out)
	return out, nil
}

// Oracle exposes the wrapped DirectHistogram.
func (w *DirectHistogramWire) Oracle() *DirectHistogram { return w.d }

// Report computes the user's wire report for item x (userIdx is unused:
// the oracle has no user partition).
func (w *DirectHistogramWire) Report(x []byte, _ int, rng *rand.Rand) (proto.WireReport, error) {
	v, err := OrdinalOf(x, w.itemBytes, w.d.Domain())
	if err != nil {
		return nil, err
	}
	rep, err := w.d.Report(v, rng)
	if err != nil {
		return nil, err
	}
	dst := proto.AppendHeader(make([]byte, 0, 2+DirectReportPayloadBytes), w.ProtocolID(), w.version)
	return proto.WireReport(AppendDirectReport(dst, rep)), nil
}

// MinRecoverableFrequency reports the per-query error envelope at β = 0.05,
// sized from the n hint or, without one, from the reports absorbed so far.
func (w *DirectHistogramWire) MinRecoverableFrequency() float64 {
	n := w.n
	if n < 1 {
		n = w.TotalReports()
	}
	if n < 1 {
		n = 1
	}
	return w.d.ErrorBound(n, 0.05)
}
