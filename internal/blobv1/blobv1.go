// Package blobv1 rewrites the frequency-oracle blobs (LHSK, LDSK) nested
// in snapshots from format version 2, the one the oracles write, to
// version 1, the dense format every reader still loads. Tests use it to
// build version 1 inputs from live state, to corrupt a snapshot at the
// fixed offsets the dense format has, and to compare snapshots that
// differ only in their blob versions. Only _test.go files import it;
// nothing in the module writes version 1.
//
// Every function takes bytes a reader has accepted, or an aggregator
// wrote; on anything else it may panic.
package blobv1

import (
	"bytes"
	"encoding/binary"
	"math"

	"ldphh/internal/proto"
)

// envelopeBytes is the length of the snapshot envelope:
// "LSNP" | version u8 | protocol ID u8 | fingerprint u64.
const envelopeBytes = 14

// Blob returns an LHSK or LDSK blob as version 1: the same header with
// version byte 1, the same row counts, and rows × t float64 cells. A
// version 1 blob comes back as is.
func Blob(b []byte) []byte {
	if b[4] == 1 {
		return b
	}
	hdr, rows := 13, int(binary.BigEndian.Uint32(b[5:]))
	if string(b[:4]) == "LDSK" {
		hdr, rows = 21, 1
	}
	t := int(binary.BigEndian.Uint32(b[9:]))
	head := hdr + 8*rows
	out := append([]byte(nil), b[:head]...)
	out[4] = 1
	cells := make([]int64, rows*t)
	p, pos := b[head:], 0
	for {
		run, n := binary.Uvarint(p)
		p = p[n:]
		if pos += int(run); pos == len(cells) {
			break
		}
		zz, n := binary.Uvarint(p)
		p = p[n:]
		cells[pos] = int64(zz>>1) ^ -int64(zz&1)
		pos++
	}
	for _, v := range cells {
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(float64(v)))
	}
	return out
}

// Body returns the snapshot body of the kind with protocol ID id with
// every nested oracle blob rewritten by Blob: the whole body of the
// hashtogram, directhistogram and smalldomain kinds, the M+1 blobs of a
// PES body, and the open round's blob of a pem or fedtrie body. Other
// kinds nest no blob, so their bodies come back as is.
func Body(id byte, body []byte) []byte {
	return walk(id, body, Blob)
}

// Snapshot returns an envelope snapshot with its body rewritten by Body.
func Snapshot(snap []byte) []byte {
	return append(append([]byte(nil), snap[:envelopeBytes]...), Body(snap[5], snap[envelopeBytes:])...)
}

// Reserialized reports whether out, the envelope snapshot an aggregator
// wrote after it restored in, is in written again: byte for byte when in
// carries the envelope and only version 2 blobs, and otherwise once in
// carries out's envelope in place of its pre-envelope header of pre bytes
// and both have every blob rewritten to version 1.
func Reserialized(in, out []byte, pre int) bool {
	if bytes.HasPrefix(in, []byte("LSNP")) {
		if onlyV2(in[5], in[envelopeBytes:]) {
			return bytes.Equal(in, out)
		}
	} else {
		in = append(append([]byte(nil), out[:envelopeBytes]...), in[pre:]...)
	}
	return bytes.Equal(Snapshot(in), Snapshot(out))
}

// onlyV2 reports whether every blob nested in the body is version 2.
func onlyV2(id byte, body []byte) bool {
	only := true
	walk(id, body, func(b []byte) []byte {
		only = only && b[4] == 2
		return b
	})
	return only
}

// walk returns the body of the kind with protocol ID id with each nested
// oracle blob replaced by f's rewrite of it, and each PES blob's length
// prefix set to the rewrite's length.
func walk(id byte, body []byte, f func([]byte) []byte) []byte {
	switch id {
	case proto.IDHashtogram, proto.IDDirectHistogram, proto.IDSmallDomain:
		return f(body)
	case proto.IDPrivateExpanderSketch:
		// m u32 | absorbed u64 | groupN []u64 | (M+1) × (len u32 | blob)
		m := int(binary.BigEndian.Uint32(body))
		off := 4 + 8 + 8*m
		out := append([]byte(nil), body[:off]...)
		for i := 0; i <= m; i++ {
			n := int(binary.BigEndian.Uint32(body[off:]))
			blob := f(body[off+4 : off+4+n])
			out = binary.BigEndian.AppendUint32(out, uint32(len(blob)))
			out = append(out, blob...)
			off += 4 + n
		}
		return out
	case proto.IDPEM, proto.IDFedTrie:
		// round u32 | done u8 | roundReports u64 | absorbed u64 |
		// candCount u32 | candidates (u16 len | bytes) | histLen u32 |
		// LDSK blob (absent once done) | estimates
		off := 4 + 1 + 8 + 8
		cands := int(binary.BigEndian.Uint32(body[off:]))
		off += 4
		for i := 0; i < cands; i++ {
			off += 2 + int(binary.BigEndian.Uint16(body[off:]))
		}
		n := int(binary.BigEndian.Uint32(body[off:]))
		out := append([]byte(nil), body[:off]...)
		if n == 0 {
			return append(out, body[off:]...)
		}
		blob := f(body[off+4 : off+4+n])
		out = binary.BigEndian.AppendUint32(out, uint32(len(blob)))
		out = append(out, blob...)
		return append(out, body[off+4+n:]...)
	}
	return body
}
