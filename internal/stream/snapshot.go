package stream

import (
	"encoding/binary"
	"fmt"
	"math"

	"ldphh/internal/proto"
)

// The streaming aggregator serializes its accumulated (non-finalized) state
// into a versioned binary snapshot so the aggregation server can checkpoint
// a running stream, resume after a crash, or ship a leaf's state to a parent
// that folds it in with Merge. The public randomness (bucket hash, decay
// coins) is NOT serialized — it is reproducible from the parameters — so a
// snapshot only loads into an aggregator built from identical parameters;
// Restore validates the embedded shape against the receiver and rejects
// mismatches before touching any state (atomic validate-then-commit, the
// repo-wide snapshot contract).
//
// Format "LSGK" version 1 (big endian):
//
//	magic "LSGK" | version u8 | kind u8
//	| domain u32 | windows u32 | k u32 | windowSize u32 | warmup u32
//	| buckets u32 | lambda u32 | epsBits u64 | seed u64
//	| reports u64 | evictions u64 | decays u64 | overflow u64
//	| payload
//
// payload is domain f64 raw counts for Naive, or buckets*lambda cells of
// (used u8 | val u32 | cntBits u64) for BasicHG.

const (
	snapshotMagic   = "LSGK"
	snapshotVersion = 1
	snapshotHdrLen  = 4 + 1 + 1 + 5*4 + 2*4 + 2*8 + 4*8
	cellLen         = 1 + 4 + 8
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

// snapshotLen returns the exact serialized length for this geometry.
func (a *Aggregator) snapshotLen() int {
	if a.p.Kind == Naive {
		return snapshotHdrLen + 8*a.p.Domain
	}
	return snapshotHdrLen + cellLen*len(a.cells)
}

// Snapshot serializes the accumulated state (format above). Rejected after
// Finalize: a retired stream has nothing left to recover into.
func (a *Aggregator) Snapshot() ([]byte, error) {
	if a.finalized {
		return nil, fmt.Errorf("stream: Snapshot after Finalize")
	}
	buf := make([]byte, 0, a.snapshotLen())
	buf = append(buf, snapshotMagic...)
	buf = append(buf, snapshotVersion, byte(a.p.Kind))
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.p.Domain))
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.p.Windows))
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.p.K))
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.p.WindowSize))
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.p.WarmupWindows))
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.p.Buckets))
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.p.LambdaH))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(a.p.Eps))
	buf = binary.BigEndian.AppendUint64(buf, a.p.Seed)
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.reports))
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.evictions))
	buf = binary.BigEndian.AppendUint64(buf, a.decays)
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.overflow))
	if a.p.Kind == Naive {
		for _, c := range a.counts {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c))
		}
		return buf, nil
	}
	for _, c := range a.cells {
		used := byte(0)
		if c.used {
			used = 1
		}
		buf = append(buf, used)
		buf = binary.BigEndian.AppendUint32(buf, c.val)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c.cnt))
	}
	return buf, nil
}

// decodeSnapshot validates a blob against the receiver's parameters and
// returns the decoded state without touching the receiver.
func (a *Aggregator) decodeSnapshot(buf []byte) (*Aggregator, error) {
	if len(buf) != a.snapshotLen() {
		return nil, fmt.Errorf("stream: snapshot length %d, want %d", len(buf), a.snapshotLen())
	}
	if string(buf[:4]) != snapshotMagic {
		return nil, fmt.Errorf("stream: bad snapshot magic %q", buf[:4])
	}
	if buf[4] != snapshotVersion {
		return nil, fmt.Errorf("stream: unsupported snapshot version %d", buf[4])
	}
	if Kind(buf[5]) != a.p.Kind {
		return nil, fmt.Errorf("stream: snapshot kind %v does not match aggregator kind %v", Kind(buf[5]), a.p.Kind)
	}
	geom := []struct {
		name string
		got  uint32
		want int
	}{
		{"domain", binary.BigEndian.Uint32(buf[6:]), a.p.Domain},
		{"windows", binary.BigEndian.Uint32(buf[10:]), a.p.Windows},
		{"k", binary.BigEndian.Uint32(buf[14:]), a.p.K},
		{"windowSize", binary.BigEndian.Uint32(buf[18:]), a.p.WindowSize},
		{"warmupWindows", binary.BigEndian.Uint32(buf[22:]), a.p.WarmupWindows},
		{"buckets", binary.BigEndian.Uint32(buf[26:]), a.p.Buckets},
		{"lambda", binary.BigEndian.Uint32(buf[30:]), a.p.LambdaH},
	}
	for _, g := range geom {
		if int(g.got) != g.want {
			return nil, fmt.Errorf("stream: snapshot %s %d does not match aggregator %d", g.name, g.got, g.want)
		}
	}
	if bits := binary.BigEndian.Uint64(buf[34:]); bits != math.Float64bits(a.p.Eps) {
		return nil, fmt.Errorf("stream: snapshot eps %v does not match aggregator %v", math.Float64frombits(bits), a.p.Eps)
	}
	if seed := binary.BigEndian.Uint64(buf[42:]); seed != a.p.Seed {
		return nil, fmt.Errorf("stream: snapshot seed %d does not match aggregator %d", seed, a.p.Seed)
	}
	other := a.NewAccumulator()
	reports := binary.BigEndian.Uint64(buf[50:])
	evictions := binary.BigEndian.Uint64(buf[58:])
	decays := binary.BigEndian.Uint64(buf[66:])
	overflow := binary.BigEndian.Uint64(buf[74:])
	if reports > math.MaxInt32 || evictions > math.MaxInt32 || overflow > math.MaxInt32 {
		return nil, fmt.Errorf("stream: snapshot counters out of range")
	}
	other.reports = int(reports)
	other.evictions = int64(evictions)
	other.decays = decays
	other.overflow = int64(overflow)
	body := buf[snapshotHdrLen:]
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

// Restore replaces this aggregator's accumulated state with a snapshot
// produced by an aggregator with identical parameters. On error the state
// is unchanged.
func (a *Aggregator) Restore(buf []byte) error {
	if a.finalized {
		return fmt.Errorf("stream: Restore after Finalize")
	}
	other, err := a.decodeSnapshot(buf)
	if err != nil {
		return err
	}
	a.counts = other.counts
	a.cells = other.cells
	a.reports = other.reports
	a.evictions = other.evictions
	a.decays = other.decays
	a.overflow = other.overflow
	return nil
}

// MergeSnapshot folds a sibling aggregator's snapshot into this one by
// rehydrating it into a fresh shard and merging.
func (a *Aggregator) MergeSnapshot(buf []byte) error {
	if a.finalized {
		return fmt.Errorf("stream: MergeSnapshot after Finalize")
	}
	other, err := a.decodeSnapshot(buf)
	if err != nil {
		return err
	}
	return a.Merge(other)
}
