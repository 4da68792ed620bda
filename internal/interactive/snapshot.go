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
// The proto envelope carries the kind and the engine fingerprint; the body
// (big endian) is format "LIRK" version 1 after its "LIRK" | 1 |
// fingerprint header, so pre-envelope LIRK checkpoints still restore:
//
//	round u32 | done u8 | roundReports u64 | absorbed u64 |
//	candCount u32 | candCount × (u16 len | bytes) |
//	histLen u32 | LDSK blob (absent once done) |
//	estCount u32 | estCount × (u16 len | bytes | f64bits u64)
//
// Restore and MergeSnapshot are atomic: DecodeBody validates the whole body
// — round bounds, candidate canonicality, the embedded oracle snapshot, and
// the report-count cross-check — before any engine state changes, so a
// failed load leaves the open round exactly as it was.

// roundSnapshot is a decoded and validated body, not yet installed. Its
// candidates, estimate items and LDSK blob are views into the body: the
// blob is checked in place against the round oracle shape its candidates
// fix, with no oracle built. Merge compares the views with the live
// round and adds the blob into the live oracle; Replace copies what the
// engine keeps and builds the round oracle from the blob.
type roundSnapshot struct {
	round        int
	done         bool
	roundReports int
	absorbed     int
	cands        [][]byte
	blob         []byte // checked LDSK blob; empty once done
	estimates    []proto.Estimate
}

// The roundKernel methods below are Wire's proto.StateCodec (Fingerprint
// is the engine's own). BodyLen, AppendBody, Replace and Merge run under
// the adapter lock; DecodeBody runs without it and reads only the
// parameters.

// BodyLen writes the open round's blob into the engine's snapshot
// buffer, for AppendBody to copy out.
func (k roundKernel) BodyLen() int {
	k.blob = k.blob[:0]
	if !k.done {
		k.blob = k.hist.AppendSnapshot(k.blob)
	}
	n := 4 + 1 + 8 + 8 + 4 + 4 + 4 + len(k.blob)
	for _, c := range k.cands {
		n += 2 + len(c)
	}
	for _, est := range k.estimates {
		n += 2 + len(est.Item) + 8
	}
	return n
}

func (k roundKernel) AppendBody(buf []byte) []byte {
	e := k.Engine
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
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.blob)))
	buf = append(buf, e.blob...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.estimates)))
	for _, est := range e.estimates {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(est.Item)))
		buf = append(buf, est.Item...)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(est.Count))
	}
	return buf
}

// DecodeBody parses a body and validates it against the engine's
// parameters without copying it.
func (k roundKernel) DecodeBody(buf []byte) (*roundSnapshot, error) {
	e := k.Engine
	const fixed = 4 + 1 + 8 + 8 + 4
	if len(buf) < fixed {
		return nil, fmt.Errorf("interactive: snapshot truncated: %d bytes", len(buf))
	}
	d := &roundSnapshot{round: int(binary.BigEndian.Uint32(buf))}
	switch buf[4] {
	case 0:
	case 1:
		d.done = true
	default:
		return nil, fmt.Errorf("interactive: snapshot done byte %d", buf[4])
	}
	rr := binary.BigEndian.Uint64(buf[5:])
	ab := binary.BigEndian.Uint64(buf[13:])
	const maxTally = uint64(1) << 53
	if rr > maxTally || ab > maxTally || rr > ab {
		return nil, fmt.Errorf("interactive: snapshot report counts implausible (round %d, total %d)", rr, ab)
	}
	d.roundReports, d.absorbed = int(rr), int(ab)
	candCount := binary.BigEndian.Uint32(buf[21:])
	if candCount > maxRoundDomain {
		return nil, fmt.Errorf("interactive: snapshot claims %d candidates (max %d)", candCount, maxRoundDomain)
	}
	off := fixed
	// Size each list by the entries the remaining bytes can hold (2 per
	// candidate, 10 per estimate), not by the count the body claims.
	d.cands = make([][]byte, 0, min(int(candCount), (len(buf)-off)/2))
	for i := uint32(0); i < candCount; i++ {
		if len(buf)-off < 2 {
			return nil, fmt.Errorf("interactive: snapshot candidate %d truncated", i)
		}
		l := int(binary.BigEndian.Uint16(buf[off:]))
		off += 2
		if len(buf)-off < l {
			return nil, fmt.Errorf("interactive: snapshot candidate %d truncated", i)
		}
		d.cands = append(d.cands, buf[off:off+l])
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
	d.blob = buf[off : off+histLen]
	off += histLen
	if len(buf)-off < 4 {
		return nil, errors.New("interactive: snapshot estimate count truncated")
	}
	estCount := binary.BigEndian.Uint32(buf[off:])
	off += 4
	if estCount > maxRoundDomain {
		return nil, fmt.Errorf("interactive: snapshot claims %d estimates", estCount)
	}
	d.estimates = make([]proto.Estimate, 0, min(int(estCount), (len(buf)-off)/10))
	for i := uint32(0); i < estCount; i++ {
		if len(buf)-off < 2 {
			return nil, fmt.Errorf("interactive: snapshot estimate %d truncated", i)
		}
		l := int(binary.BigEndian.Uint16(buf[off:]))
		off += 2
		if len(buf)-off < l+8 {
			return nil, fmt.Errorf("interactive: snapshot estimate %d truncated", i)
		}
		item := buf[off : off+l]
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
	if d.done {
		if len(d.cands) != 0 || len(d.blob) != 0 {
			return nil, errors.New("interactive: done snapshot carries round state")
		}
		for _, est := range d.estimates {
			if len(est.Item) != e.p.ItemBytes {
				return nil, fmt.Errorf("interactive: done snapshot estimate is %d bytes, want %d", len(est.Item), e.p.ItemBytes)
			}
		}
		return d, nil
	}
	if len(d.estimates) != 0 {
		return nil, errors.New("interactive: open-round snapshot carries final estimates")
	}
	if d.round < 0 || d.round >= e.rounds {
		return nil, fmt.Errorf("interactive: snapshot round %d outside [0,%d)", d.round, e.rounds)
	}
	if err := validateCandidates(d.cands, e.bitsAt(d.round)); err != nil {
		return nil, err
	}
	got, err := freqoracle.CheckDirectSnapshot(e.p.Eps, len(d.cands)+1, d.blob)
	if err != nil {
		return nil, err
	}
	if got != d.roundReports {
		return nil, fmt.Errorf("interactive: snapshot oracle holds %d reports, header says %d", got, d.roundReports)
	}
	return d, nil
}

// Replace copies the candidates and estimate items out of the snapshot
// bytes into the slices DecodeBody built, fills a new round oracle from
// the blob, and installs the decoded round position; DecodeBody
// guarantees a done one carries no round state and an open one no
// estimates.
func (k roundKernel) Replace(d *roundSnapshot) error {
	e := k.Engine
	var hist *freqoracle.DirectHistogram
	if !d.done {
		var err error
		if hist, err = freqoracle.NewDirectHistogram(e.p.Eps, len(d.cands)+1); err != nil {
			return err
		}
		hist.AddSnapshot(d.blob)
	}
	for i, c := range d.cands {
		d.cands[i] = bytes.Clone(c)
	}
	for i := range d.estimates {
		d.estimates[i].Item = bytes.Clone(d.estimates[i].Item)
	}
	e.round = d.round
	e.done = d.done
	e.roundReports = d.roundReports
	e.absorbed = d.absorbed
	e.cands = d.cands
	e.hist = hist
	e.estimates = d.estimates
	return nil
}

// Merge folds a sibling engine's open-round tally into this one: same
// round, identical candidate set, neither side done. The canonical tree
// deployment provisions fresh per-round leaves with SetRoundState, so a
// merged leaf's absorbed count equals its round count; both totals grow by
// the sibling's round reports.
func (k roundKernel) Merge(d *roundSnapshot) error {
	e := k.Engine
	if e.done {
		return errors.New("interactive: MergeSnapshot after the final round committed")
	}
	if d.done {
		return errors.New("interactive: cannot merge a done snapshot into an open round")
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
	// Same round and candidates: the live oracle has the shape the blob
	// was checked against.
	e.hist.AddSnapshot(d.blob)
	e.roundReports += d.roundReports
	e.absorbed += d.roundReports
	return nil
}
