package interactive

import (
	"context"
	"encoding/binary"
	"math/rand/v2"

	"ldphh/internal/freqoracle"
	"ldphh/internal/proto"
)

// Wire payload: [round u8] then a freqoracle DirectReport (Hadamard column
// u32 BE, bit u8 ∈ {0,1}). The round stamp makes every report
// self-describing about which candidate set its column indexes — the
// aggregator rejects reports for any round but the open one instead of
// silently folding them into the wrong tally. Six bytes per report
// regardless of domain size or round count.
const PayloadBytes = 1 + freqoracle.DirectReportPayloadBytes

const wireVersion = 1

func init() {
	proto.Register(proto.Codec{ID: proto.IDPEM, Name: "pem", Version: wireVersion, PayloadBytes: PayloadBytes})
	proto.Register(proto.Codec{ID: proto.IDFedTrie, Name: "fedtrie", Version: wireVersion, PayloadBytes: PayloadBytes})
}

// Wire adapts the round engine to the unified proto.Reporter/Aggregator
// surface, so both interactive kinds inherit the generic TCP server,
// mega-batch ingest, snapshot/merge fan-in, durable checkpoints and the
// metrics sidecar unchanged — plus the Round/AdvanceRound wire commands
// through proto.Interactive. The engine is not safe for concurrent use, and
// Report reads the live round state a concurrent AdvanceRound would swap;
// the embedded proto.StateAdapter serializes every call on its own mutex
// and serves the snapshot capability (snapshot.go has the body codec).
type Wire struct {
	proto.StateAdapter[*roundSnapshot]
	eng *Engine
}

// NewWire constructs the adapter around a fresh round engine; the protocol
// ID follows Params.Mode.
func NewWire(p Params) (*Wire, error) {
	eng, err := NewEngine(p)
	if err != nil {
		return nil, err
	}
	id := proto.IDPEM
	if p.Mode == ModeFedTrie {
		id = proto.IDFedTrie
	}
	// Pre-envelope snapshots carry "LIRK" | 1 | fingerprint before the same
	// body.
	v1 := binary.BigEndian.AppendUint64([]byte("LIRK\x01"), eng.Fingerprint())
	return &Wire{StateAdapter: proto.NewStateAdapter[*roundSnapshot](id, roundKernel{eng}, v1), eng: eng}, nil
}

// roundKernel is Wire's proto.StateCodec. Round and column range checks
// happen in Engine.Absorb against the live round state.
type roundKernel struct{ *Engine }

func (k roundKernel) AbsorbPayload(p []byte) error {
	rep, err := freqoracle.DecodeDirectReport(p[1:])
	if err != nil {
		return err
	}
	return k.Absorb(RoundReport{Round: int(p[0]), Col: rep.Col, Bit: rep.Bit})
}

// Identify returns the final population-scaled estimates; it errors until
// the final round has committed (drive rounds with AdvanceRound).
func (k roundKernel) Identify(context.Context) ([]proto.Estimate, error) {
	return k.Engine.Identify()
}

// Engine exposes the wrapped engine (for in-process inspection; callers
// must not mutate it concurrently with the adapter).
func (w *Wire) Engine() *Engine { return w.eng }

// Report computes user userIdx's message for the open round. Users whose
// group is not assigned to the open round get ErrNotInRound (they report
// in their own round); install the server's broadcast with SetRoundState
// first so device and server agree on the candidate set.
func (w *Wire) Report(item []byte, userIdx int, rng *rand.Rand) (proto.WireReport, error) {
	var rep RoundReport
	var err error
	w.Locked(func() { rep, err = w.eng.Report(item, userIdx, rng) })
	if err != nil {
		return nil, err
	}
	dst := proto.AppendHeader(make([]byte, 0, 2+PayloadBytes), w.ProtocolID(), wireVersion)
	dst = append(dst, byte(rep.Round))
	dst = freqoracle.AppendDirectReport(dst, freqoracle.DirectReport{Col: rep.Col, Bit: rep.Bit})
	return proto.WireReport(dst), nil
}

// RoundState returns the open round's broadcast state (proto.Interactive).
func (w *Wire) RoundState() (rs proto.RoundState) {
	w.Locked(func() { rs = w.eng.RoundState() })
	return rs
}

// SetRoundState installs a server broadcast (proto.Interactive).
func (w *Wire) SetRoundState(rs proto.RoundState) (err error) {
	w.Locked(func() { err = w.eng.SetRoundState(rs) })
	return err
}

// AdvanceRound finalizes the open round and opens the next one
// (proto.Interactive).
func (w *Wire) AdvanceRound() (rs proto.RoundState, err error) {
	w.Locked(func() { rs, err = w.eng.AdvanceRound() })
	return rs, err
}

// MinRecoverableFrequency reports the recovery floor (proto.Calibrated).
func (w *Wire) MinRecoverableFrequency() (f float64) {
	w.Locked(func() { f = w.eng.MinRecoverableFrequency() })
	return f
}
