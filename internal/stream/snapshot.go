package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"ldphh/internal/proto"
)

// The streaming aggregator serializes its accumulated state into a
// snapshot body so the aggregation server can checkpoint a running
// stream, resume after a crash, or ship a leaf's state to a parent that
// folds it in with Merge. The public randomness (bucket hash, decay coins)
// is NOT serialized — it is reproducible from the parameters — so a
// snapshot only loads into an aggregator built from identical parameters.
// The proto envelope carries the kind and the Wire fingerprint, which pins
// every parameter; the body repeats the parameters, and DecodeBody checks
// them as one byte comparison against the receiver's own, so only
// corruption can trip it.
//
// Body (big endian) — format "LSGK" version 1 after its "LSGK" | 1 header,
// so pre-envelope LSGK checkpoints still restore:
//
//	kind u8 | domain u32 | windows u32 | k u32 | windowSize u32 | warmup u32
//	| buckets u32 | lambda u32 | epsBits u64 | seed u64
//	| reports u64 | evictions u64 | decays u64 | overflow u64
//	| payload
//
// payload is domain f64 raw counts for Naive, or buckets*lambda cells of
// (used u8 | val u32 | cntBits u64) for BasicHG.

const (
	paramsLen = 1 + 7*4 + 2*8
	clocksLen = 4 * 8
	cellLen   = 1 + 4 + 8
)

// Fingerprint returns a 64-bit digest of every parameter that shapes the
// accumulated state and public randomness: kind, ε, the window split, the
// structure geometry and the seed. Two aggregators with equal fingerprints
// absorb interchangeable reports and produce mutually loadable snapshots.
func (a *Aggregator) Fingerprint() uint64 {
	return proto.Fingerprint("ldphh/stream.Aggregator/v1",
		uint64(a.p.Kind), math.Float64bits(a.p.Eps), uint64(a.p.Windows),
		uint64(a.p.K), uint64(a.p.Domain), uint64(a.p.WindowSize),
		uint64(a.p.WarmupWindows), uint64(a.p.Buckets), uint64(a.p.LambdaH),
		a.p.Seed)
}

// appendParams appends the body's parameter section.
func (a *Aggregator) appendParams(dst []byte) []byte {
	dst = append(dst, byte(a.p.Kind))
	for _, v := range []int{a.p.Domain, a.p.Windows, a.p.K, a.p.WindowSize, a.p.WarmupWindows, a.p.Buckets, a.p.LambdaH} {
		dst = binary.BigEndian.AppendUint32(dst, uint32(v))
	}
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.p.Eps))
	return binary.BigEndian.AppendUint64(dst, a.p.Seed)
}

// bodyLen returns the exact body length for this geometry; it reads only
// the parameters, so DecodeBody may call it without the lock.
func (a *Aggregator) bodyLen() int {
	if a.p.Kind == Naive {
		return paramsLen + clocksLen + 8*a.p.Domain
	}
	return paramsLen + clocksLen + cellLen*a.p.Buckets*a.p.LambdaH
}

// BodyLen returns the body length for this geometry.
func (k *streamKernel) BodyLen() int { return k.bodyLen() }

// AppendBody appends the accumulated state (format above).
func (k *streamKernel) AppendBody(buf []byte) []byte {
	buf = k.appendParams(buf)
	buf = binary.BigEndian.AppendUint64(buf, uint64(k.reports))
	buf = binary.BigEndian.AppendUint64(buf, uint64(k.evictions))
	buf = binary.BigEndian.AppendUint64(buf, k.decays)
	buf = binary.BigEndian.AppendUint64(buf, uint64(k.overflow))
	if k.p.Kind == Naive {
		for _, c := range k.counts {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c))
		}
		return buf
	}
	for _, c := range k.cells {
		used := byte(0)
		if c.used {
			used = 1
		}
		buf = append(buf, used)
		buf = binary.BigEndian.AppendUint32(buf, c.val)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c.cnt))
	}
	return buf
}

// DecodeBody validates a body against the receiver's parameters and
// returns the decoded state as a fresh aggregator, without touching the
// receiver.
func (k *streamKernel) DecodeBody(buf []byte) (*Aggregator, error) {
	a := k.Aggregator
	if len(buf) != a.bodyLen() {
		return nil, fmt.Errorf("stream: snapshot length %d, want %d", len(buf), a.bodyLen())
	}
	var params [paramsLen]byte
	if !bytes.Equal(buf[:paramsLen], a.appendParams(params[:0])) {
		return nil, fmt.Errorf("stream: snapshot parameters %x do not match aggregator %x", buf[:paramsLen], params)
	}
	other := a.NewAccumulator()
	clocks := buf[paramsLen:]
	reports := binary.BigEndian.Uint64(clocks)
	evictions := binary.BigEndian.Uint64(clocks[8:])
	decays := binary.BigEndian.Uint64(clocks[16:])
	overflow := binary.BigEndian.Uint64(clocks[24:])
	if reports > math.MaxInt32 || evictions > math.MaxInt32 || overflow > math.MaxInt32 {
		return nil, fmt.Errorf("stream: snapshot counters out of range")
	}
	other.reports = int(reports)
	other.evictions = int64(evictions)
	other.decays = decays
	other.overflow = int64(overflow)
	body := buf[paramsLen+clocksLen:]
	if a.p.Kind == Naive {
		var sum float64
		for i := range other.counts {
			v := math.Float64frombits(binary.BigEndian.Uint64(body[8*i:]))
			if !(v >= 0) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("stream: snapshot count[%d] = %v is not a finite non-negative number", i, v)
			}
			other.counts[i] = v
			sum += v
		}
		if math.Abs(sum-float64(other.reports)) > 0.5+1e-6*sum {
			return nil, fmt.Errorf("stream: snapshot counts sum %v inconsistent with %d reports", sum, other.reports)
		}
		return other, nil
	}
	for i := range other.cells {
		rec := body[cellLen*i:]
		switch rec[0] {
		case 0:
			if binary.BigEndian.Uint32(rec[1:]) != 0 || binary.BigEndian.Uint64(rec[5:]) != 0 {
				return nil, fmt.Errorf("stream: snapshot cell %d unused but non-zero", i)
			}
		case 1:
			val := binary.BigEndian.Uint32(rec[1:])
			cnt := math.Float64frombits(binary.BigEndian.Uint64(rec[5:]))
			if int64(val) >= int64(a.p.Domain) {
				return nil, fmt.Errorf("stream: snapshot cell %d value %d outside domain %d", i, val, a.p.Domain)
			}
			if !(cnt > 0) || math.IsInf(cnt, 0) {
				return nil, fmt.Errorf("stream: snapshot cell %d count %v is not a finite positive number", i, cnt)
			}
			// A tracked value must live in the bucket the hash assigns it,
			// or Absorb and Merge would stop finding it.
			if b := a.bucketOf.Range(uint64(val), a.p.Buckets); i/a.p.LambdaH != b {
				return nil, fmt.Errorf("stream: snapshot cell %d holds value %d belonging to bucket %d", i, val, b)
			}
			other.cells[i] = cell{val: val, cnt: cnt, used: true}
		default:
			return nil, fmt.Errorf("stream: snapshot cell %d has invalid used byte %d", i, rec[0])
		}
	}
	// Duplicate tracked values would double-count on every later absorb.
	seen := make(map[uint32]struct{}, len(other.cells))
	for i, c := range other.cells {
		if !c.used {
			continue
		}
		if _, dup := seen[c.val]; dup {
			return nil, fmt.Errorf("stream: snapshot tracks value %d in more than one cell (%d)", c.val, i)
		}
		seen[c.val] = struct{}{}
	}
	return other, nil
}

// Replace installs a decoded state (DecodeBody's result).
func (k *streamKernel) Replace(other *Aggregator) error {
	k.counts, k.cells = other.counts, other.cells
	k.reports, k.evictions, k.decays, k.overflow = other.reports, other.evictions, other.decays, other.overflow
	return nil
}
