package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// RoundState is the server-driven broadcast of an interactive (multi-round)
// protocol: which round is open, how wide the candidate prefixes are, and
// the candidate set itself. Devices install it with Interactive.SetRoundState
// (or read it over the wire via the Round command) before computing their
// round report; the server advances it with Interactive.AdvanceRound once
// the round's group has reported.
//
// The candidate list is canonical: sorted ascending by bytes, strictly
// increasing (no duplicates), every entry exactly prefixBits wide with any
// trailing bits of the last byte zeroed. Canonical form is what makes the
// round transition deterministic regardless of ingest order or worker count.
type RoundState struct {
	Round        int      // zero-based index of the open round
	Rounds       int      // total round count g (users are partitioned into g groups)
	PrefixBits   int      // width of every candidate prefix this round, in bits
	Done         bool     // true once the final round committed; Identify is now answerable
	GroupReports int      // reports absorbed into the open round so far
	Candidates   [][]byte // canonical candidate prefix set of the open round
}

// roundStateVersion versions the RoundState wire encoding.
const roundStateVersion byte = 1

// maxRoundCandidates bounds a decoded candidate count so a corrupt or
// malicious length prefix cannot drive allocation. It comfortably exceeds
// any real fan-out (engine candidate sets are capped far lower).
const maxRoundCandidates = 1 << 22

// EncodeRoundState serializes a RoundState into its versioned wire form:
//
//	u8 version | u32 round | u32 rounds | u32 prefixBits | u8 done |
//	u64 groupReports | u32 candCount | candCount × (u16 len | bytes)
//
// All integers big-endian.
func EncodeRoundState(rs RoundState) []byte {
	n := 1 + 4 + 4 + 4 + 1 + 8 + 4
	for _, c := range rs.Candidates {
		n += 2 + len(c)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, roundStateVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(rs.Round))
	buf = binary.BigEndian.AppendUint32(buf, uint32(rs.Rounds))
	buf = binary.BigEndian.AppendUint32(buf, uint32(rs.PrefixBits))
	done := byte(0)
	if rs.Done {
		done = 1
	}
	buf = append(buf, done)
	buf = binary.BigEndian.AppendUint64(buf, uint64(rs.GroupReports))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rs.Candidates)))
	for _, c := range rs.Candidates {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(c)))
		buf = append(buf, c...)
	}
	return buf
}

// DecodeRoundState parses a RoundState encoded by EncodeRoundState,
// validating structure before returning (length prefixes consistent, no
// trailing garbage, candidate count bounded). It does not check candidate
// canonicality — that is the engine's job on install.
func DecodeRoundState(b []byte) (RoundState, error) {
	var rs RoundState
	const fixed = 1 + 4 + 4 + 4 + 1 + 8 + 4
	if len(b) < fixed {
		return rs, fmt.Errorf("proto: round state truncated: %d bytes", len(b))
	}
	if b[0] != roundStateVersion {
		return rs, fmt.Errorf("proto: round state version %d, want %d", b[0], roundStateVersion)
	}
	rs.Round = int(binary.BigEndian.Uint32(b[1:]))
	rs.Rounds = int(binary.BigEndian.Uint32(b[5:]))
	rs.PrefixBits = int(binary.BigEndian.Uint32(b[9:]))
	switch b[13] {
	case 0:
	case 1:
		rs.Done = true
	default:
		return rs, fmt.Errorf("proto: round state done byte %d", b[13])
	}
	rs.GroupReports = int(binary.BigEndian.Uint64(b[14:]))
	if rs.GroupReports < 0 {
		return rs, errors.New("proto: round state group-report count overflows int")
	}
	count := binary.BigEndian.Uint32(b[22:])
	if count > maxRoundCandidates {
		return rs, fmt.Errorf("proto: round state claims %d candidates (max %d)", count, maxRoundCandidates)
	}
	off := fixed
	if count > 0 {
		// Each candidate takes at least its 2-byte length prefix.
		rs.Candidates = make([][]byte, 0, min(int(count), (len(b)-off)/2))
	}
	for i := uint32(0); i < count; i++ {
		if len(b)-off < 2 {
			return RoundState{}, fmt.Errorf("proto: round state candidate %d length truncated", i)
		}
		l := int(binary.BigEndian.Uint16(b[off:]))
		off += 2
		if len(b)-off < l {
			return RoundState{}, fmt.Errorf("proto: round state candidate %d truncated: want %d bytes, have %d", i, l, len(b)-off)
		}
		c := make([]byte, l)
		copy(c, b[off:off+l])
		rs.Candidates = append(rs.Candidates, c)
		off += l
	}
	if off != len(b) {
		return RoundState{}, fmt.Errorf("proto: round state has %d trailing bytes", len(b)-off)
	}
	return rs, nil
}

// Interactive is the optional aggregator capability behind multi-round
// (interactive) protocols: the server broadcasts the open round's candidate
// set, each round's user group reports against it, and AdvanceRound
// finalizes the round's frequency oracle and extends the surviving prefixes
// into the next round's candidates — validate-then-commit, so a failed
// transition leaves the open round untouched.
//
// Devices use SetRoundState to install a server broadcast before reporting
// (a device and the server agree on the candidate set exactly, or the
// device's column indices would be meaningless). Detect the capability with
// AsInteractive.
type Interactive interface {
	// RoundState returns the currently open round's broadcast state.
	RoundState() RoundState
	// SetRoundState installs a server-broadcast round state, validating
	// round bounds and candidate canonicality first. Installing a Done
	// state is rejected — a finished protocol has nothing to report into.
	SetRoundState(RoundState) error
	// AdvanceRound finalizes the open round and opens the next one (or
	// marks the protocol Done after the final round), returning the new
	// state. Validate-then-commit: on error the open round is unchanged.
	AdvanceRound() (RoundState, error)
}

// AsInteractive reports whether the aggregator runs a multi-round
// interactive protocol, returning the capability view when it does. The
// generic server uses this to answer the Round/AdvanceRound commands (and
// to surface round position in /metrics) only for interactive protocols.
func AsInteractive(a Aggregator) (Interactive, bool) {
	i, ok := a.(Interactive)
	return i, ok
}
