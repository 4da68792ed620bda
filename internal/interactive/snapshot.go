package interactive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ldphh/internal/freqoracle"
	"ldphh/internal/proto"
)

// The engine serializes its full round position — open round, candidate
// set, the round oracle's accumulated state, and (once done) the final
// estimates — so the aggregation server can checkpoint mid-round and a
// restart resumes the identical round, and so per-round leaf aggregators
// can ship their tallies to a parent for merging.
//
// Format "LIRK" version 1 (big endian):
//
//	magic "LIRK" | version u8 | fingerprint u64 | round u32 | done u8 |
//	roundReports u64 | absorbed u64 |
//	candCount u32 | candCount × (u16 len | bytes) |
//	histLen u32 | LDSK blob (absent once done) |
//	estCount u32 | estCount × (u16 len | bytes | f64bits u64)
//
// Restore and MergeSnapshot are atomic: the blob is fully validated —
// fingerprint, round bounds, candidate canonicality, the embedded oracle
// snapshot, and the report-count cross-check — before any engine state
// changes, so a failed load leaves the open round exactly as it was.

// Snapshot serializes the engine's round position (format above).
func (e *Engine) Snapshot() ([]byte, error) {
	var hist []byte
	if !e.done {
		var err error
		hist, err = e.hist.Snapshot()
		if err != nil {
			return nil, err
		}
	}
	size := 4 + 1 + 8 + 4 + 1 + 8 + 8 + 4 + 4 + len(hist) + 4
	for _, c := range e.cands {
		size += 2 + len(c)
	}
	for _, est := range e.estimates {
		size += 2 + len(est.Item) + 8
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapshotMagic...)
	buf = append(buf, snapshotVersion)
	buf = binary.BigEndian.AppendUint64(buf, e.fp)
	buf = binary.BigEndian.AppendUint32(buf, uint32(e.round))
	done := byte(0)
	if e.done {
		done = 1
	}
	buf = append(buf, done)
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.roundReports))
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.absorbed))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.cands)))
	for _, c := range e.cands {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(c)))
		buf = append(buf, c...)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(hist)))
	buf = append(buf, hist...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.estimates)))
	for _, est := range e.estimates {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(est.Item)))
		buf = append(buf, est.Item...)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(est.Count))
	}
	return buf, nil
}

// decodedSnapshot is a fully parsed and structurally validated LIRK blob,
// not yet checked against any particular engine.
type decodedSnapshot struct {
	fp           uint64
	round        int
	done         bool
	roundReports int
	absorbed     int
	cands        [][]byte
	hist         []byte
	estimates    []proto.Estimate
}

// parseSnapshot decodes and structurally validates an LIRK blob.
func parseSnapshot(buf []byte) (*decodedSnapshot, error) {
	const fixed = 4 + 1 + 8 + 4 + 1 + 8 + 8 + 4
	if len(buf) < fixed {
		return nil, fmt.Errorf("interactive: snapshot truncated: %d bytes", len(buf))
	}
	if string(buf[:4]) != snapshotMagic {
		return nil, errors.New("interactive: bad snapshot magic")
	}
	if buf[4] != snapshotVersion {
		return nil, fmt.Errorf("interactive: unsupported snapshot version %d", buf[4])
	}
	d := &decodedSnapshot{
		fp:    binary.BigEndian.Uint64(buf[5:]),
		round: int(binary.BigEndian.Uint32(buf[13:])),
	}
	switch buf[17] {
	case 0:
	case 1:
		d.done = true
	default:
		return nil, fmt.Errorf("interactive: snapshot done byte %d", buf[17])
	}
	rr := binary.BigEndian.Uint64(buf[18:])
	ab := binary.BigEndian.Uint64(buf[26:])
	const maxTally = uint64(1) << 53
	if rr > maxTally || ab > maxTally || rr > ab {
		return nil, fmt.Errorf("interactive: snapshot report counts implausible (round %d, total %d)", rr, ab)
	}
	d.roundReports, d.absorbed = int(rr), int(ab)
	candCount := binary.BigEndian.Uint32(buf[34:])
	if candCount > maxRoundDomain {
		return nil, fmt.Errorf("interactive: snapshot claims %d candidates (max %d)", candCount, maxRoundDomain)
	}
	off := fixed
	d.cands = make([][]byte, 0, candCount)
	for i := uint32(0); i < candCount; i++ {
		if len(buf)-off < 2 {
			return nil, fmt.Errorf("interactive: snapshot candidate %d truncated", i)
		}
		l := int(binary.BigEndian.Uint16(buf[off:]))
		off += 2
		if len(buf)-off < l {
			return nil, fmt.Errorf("interactive: snapshot candidate %d truncated", i)
		}
		d.cands = append(d.cands, append([]byte(nil), buf[off:off+l]...))
		off += l
	}
	if len(buf)-off < 4 {
		return nil, errors.New("interactive: snapshot oracle length truncated")
	}
	histLen := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if histLen > len(buf)-off {
		return nil, fmt.Errorf("interactive: snapshot oracle blob truncated: want %d bytes, have %d", histLen, len(buf)-off)
	}
	d.hist = buf[off : off+histLen]
	off += histLen
	if len(buf)-off < 4 {
		return nil, errors.New("interactive: snapshot estimate count truncated")
	}
	estCount := binary.BigEndian.Uint32(buf[off:])
	off += 4
	if estCount > maxRoundDomain {
		return nil, fmt.Errorf("interactive: snapshot claims %d estimates", estCount)
	}
	d.estimates = make([]proto.Estimate, 0, estCount)
	for i := uint32(0); i < estCount; i++ {
		if len(buf)-off < 2 {
			return nil, fmt.Errorf("interactive: snapshot estimate %d truncated", i)
		}
		l := int(binary.BigEndian.Uint16(buf[off:]))
		off += 2
		if len(buf)-off < l+8 {
			return nil, fmt.Errorf("interactive: snapshot estimate %d truncated", i)
		}
		item := append([]byte(nil), buf[off:off+l]...)
		off += l
		count := math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
		off += 8
		if math.IsNaN(count) || math.IsInf(count, 0) {
			return nil, fmt.Errorf("interactive: snapshot estimate %d count %v not finite", i, count)
		}
		d.estimates = append(d.estimates, proto.Estimate{Item: item, Count: count})
	}
	if off != len(buf) {
		return nil, fmt.Errorf("interactive: snapshot has %d trailing bytes", len(buf)-off)
	}
	return d, nil
}

// validate checks a parsed snapshot against this engine's parameters and
// builds (but does not install) the restored round oracle. The returned
// oracle is nil for a done snapshot.
func (e *Engine) validate(d *decodedSnapshot) (*freqoracle.DirectHistogram, error) {
	if d.fp != e.fp {
		return nil, fmt.Errorf("interactive: snapshot fingerprint %016x does not match engine %016x", d.fp, e.fp)
	}
	if d.done {
		if len(d.cands) != 0 || len(d.hist) != 0 {
			return nil, errors.New("interactive: done snapshot carries round state")
		}
		for _, est := range d.estimates {
			if len(est.Item) != e.p.ItemBytes {
				return nil, fmt.Errorf("interactive: done snapshot estimate is %d bytes, want %d", len(est.Item), e.p.ItemBytes)
			}
		}
		return nil, nil
	}
	if len(d.estimates) != 0 {
		return nil, errors.New("interactive: open-round snapshot carries final estimates")
	}
	if d.round < 0 || d.round >= e.p.Rounds {
		return nil, fmt.Errorf("interactive: snapshot round %d outside [0,%d)", d.round, e.p.Rounds)
	}
	if err := validateCandidates(d.cands, e.bitsAt(d.round)); err != nil {
		return nil, err
	}
	hist, err := freqoracle.NewDirectHistogram(e.p.Eps, len(d.cands)+1)
	if err != nil {
		return nil, err
	}
	if err := hist.Restore(d.hist); err != nil {
		return nil, err
	}
	if hist.TotalReports() != d.roundReports {
		return nil, fmt.Errorf("interactive: snapshot oracle holds %d reports, header says %d",
			hist.TotalReports(), d.roundReports)
	}
	return hist, nil
}

// Restore replaces the engine's round position with a snapshot produced by
// an engine with identical parameters. On error the state is unchanged.
func (e *Engine) Restore(buf []byte) error {
	d, err := parseSnapshot(buf)
	if err != nil {
		return err
	}
	hist, err := e.validate(d)
	if err != nil {
		return err
	}
	// Commit.
	e.round = d.round
	e.done = d.done
	e.roundReports = d.roundReports
	e.absorbed = d.absorbed
	e.cands = d.cands
	e.hist = hist
	e.estimates = d.estimates
	if e.done {
		e.cands, e.hist = nil, nil
	} else {
		e.estimates = nil
	}
	return nil
}

// MergeSnapshot folds a sibling engine's open-round tally into this one:
// same fingerprint, same round, identical candidate set, neither side done.
// The canonical tree deployment provisions fresh per-round leaves with
// SetRoundState, so a merged leaf's absorbed count equals its round count;
// both totals grow by the sibling's round reports.
func (e *Engine) MergeSnapshot(buf []byte) error {
	if e.done {
		return errors.New("interactive: MergeSnapshot after the final round committed")
	}
	d, err := parseSnapshot(buf)
	if err != nil {
		return err
	}
	if d.done {
		return errors.New("interactive: cannot merge a done snapshot into an open round")
	}
	hist, err := e.validate(d)
	if err != nil {
		return err
	}
	if d.round != e.round {
		return fmt.Errorf("interactive: merge snapshot is for round %d, round %d is open", d.round, e.round)
	}
	if len(d.cands) != len(e.cands) {
		return fmt.Errorf("interactive: merge snapshot has %d candidates, engine has %d", len(d.cands), len(e.cands))
	}
	for i := range d.cands {
		if !bytes.Equal(d.cands[i], e.cands[i]) {
			return fmt.Errorf("interactive: merge snapshot candidate %d differs", i)
		}
	}
	if err := e.hist.Merge(hist); err != nil {
		return err
	}
	e.roundReports += d.roundReports
	e.absorbed += d.roundReports
	return nil
}
