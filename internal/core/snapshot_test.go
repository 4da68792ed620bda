package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"

	"ldphh/internal/blobv1"
)

func snapTestParams(seed uint64) Params {
	return Params{Eps: 4, N: 20000, ItemBytes: 4, Y: 16, Seed: seed}
}

// snapTestReports builds a deterministic planted report stream: items 1 and
// 2 are heavy, the tail is spread thin, so Identify has real output to
// compare bit for bit. Items are params.ItemBytes wide, at least 2.
func snapTestReports(t testing.TB, params Params, n int) []Report {
	t.Helper()
	proto, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(21, 22))
	reports := make([]Report, n)
	item := make([]byte, params.ItemBytes)
	last := len(item) - 1
	for i := range reports {
		clear(item)
		switch {
		case i%10 < 4:
			item[last] = 1
		case i%10 < 7:
			item[last] = 2
		default:
			item[last-1] = byte(i % 97)
			item[last] = byte(i % 251)
		}
		rep, err := proto.Report(item, i, rng)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = rep
	}
	return reports
}

// snapBlobOffset returns the offset of blob i — coordinate i's LDSK blob,
// or the confirmation oracle's LHSK blob for i = M — in v1, an M-coordinate
// snapshot whose blobs are rewritten to version 1: past the 14-byte
// envelope, the body's m u32, absorbed u64 and group counts, and i earlier
// length-prefixed LDSK blobs, all as long as the first, and blob i's own
// length. A version 1 blob's first cell sits 29 bytes in (LDSK: 21-byte
// header and n u64), a confirmation blob's first row count 13 bytes in.
func snapBlobOffset(v1 []byte, m, i int) int {
	first := 14 + 4 + 8 + 8*m
	return first + 4 + i*(4+int(binary.BigEndian.Uint32(v1[first:])))
}

// withBlob returns a copy of the snapshot snap of pr with blob i (numbered
// as in snapBlobOffset) replaced by f's rewrite of a copy of it, and its
// length prefix set to the rewrite's length.
func withBlob(pr *Protocol, snap []byte, i int, f func(blob []byte) []byte) []byte {
	off := 14 + 4 + 8 + 8*pr.p.M
	for j := 0; j < i; j++ {
		off += 4 + int(binary.BigEndian.Uint32(snap[off:]))
	}
	n := int(binary.BigEndian.Uint32(snap[off:]))
	blob := f(append([]byte(nil), snap[off+4:off+4+n]...))
	out := append([]byte(nil), snap[:off]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(blob)))
	out = append(out, blob...)
	return append(out, snap[off+4+n:]...)
}

func identifyAll(t testing.TB, pr *Protocol) []Estimate {
	t.Helper()
	est, err := pr.Identify()
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func assertIdenticalEstimates(t *testing.T, got, want []Estimate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("identified %d items, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Item, want[i].Item) || got[i].Count != want[i].Count {
			t.Fatalf("rank %d diverged: %x/%v vs %x/%v",
				i, got[i].Item, got[i].Count, want[i].Item, want[i].Count)
		}
	}
}

// TestProtocolMergeEquivalence is the protocol-layer half of the tentpole
// property: for k ∈ {1, 2, 4} leaf aggregators each ingesting a share of
// the same report stream, root Identify after snapshot+merge is
// bit-identical — same items, same order, same float64 counts — to a
// single aggregator ingesting everything sequentially. The workers
// subtests repeat the fan-in at several worker counts (see
// checkMergeWorkers), once over a geometry above 2^20 cells per
// coordinate.
func TestProtocolMergeEquivalence(t *testing.T) {
	const n = 20000
	params := snapTestParams(2024)
	reports := snapTestReports(t, params, n)

	seq, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if err := seq.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	want := identifyAll(t, seq)
	if len(want) == 0 {
		t.Fatal("sequential round identified nothing; the equivalence check would be vacuous")
	}

	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("leaves_%d", k), func(t *testing.T) {
			leaves := make([]*Protocol, k)
			for l := range leaves {
				var err error
				if leaves[l], err = New(params); err != nil {
					t.Fatal(err)
				}
			}
			for i, rep := range reports {
				if err := leaves[i%k].Absorb(rep); err != nil {
					t.Fatal(err)
				}
			}
			root, err := New(params)
			if err != nil {
				t.Fatal(err)
			}
			for _, leaf := range leaves {
				snap, err := leaf.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := root.MergeSnapshot(snap); err != nil {
					t.Fatal(err)
				}
			}
			if root.TotalReports() != n {
				t.Fatalf("root holds %d reports, want %d", root.TotalReports(), n)
			}
			assertIdenticalEstimates(t, identifyAll(t, root), want)
		})
	}
	t.Run("workers", func(t *testing.T) { checkMergeWorkers(t, params, reports) })
	t.Run("workers_large", func(t *testing.T) {
		if testing.Short() {
			t.Skip("64 MiB snapshots")
		}
		params := Params{Eps: 4, N: n, ItemBytes: 2, Y: 1024, Seed: 2024}
		if cells := checkMergeWorkers(t, params, snapTestReports(t, params, n)); cells <= 1<<20 {
			t.Fatalf("large geometry has %d cells per coordinate, want more than 2^20", cells)
		}
	})
}

// checkMergeWorkers merges a leaf's snapshot into a root holding the rest
// of the reports, and restores the sequential aggregator's snapshot, at
// Workers ∈ {1, 3, GOMAXPROCS}: both must hold the sequential aggregator's
// Snapshot bytes and identify its estimates. A snapshot corrupted in two
// coordinates must first fail both loads with the same error, the lower
// coordinate's, at every worker count. It returns the geometry's cells per
// coordinate.
func checkMergeWorkers(t *testing.T, params Params, reports []Report) int {
	absorbed := func(workers int, reports []Report) *Protocol {
		t.Helper()
		p := params
		p.Workers = workers
		pr, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range reports {
			if err := pr.Absorb(rep); err != nil {
				t.Fatal(err)
			}
		}
		return pr
	}
	snapshot := func(pr *Protocol) []byte {
		t.Helper()
		snap, err := pr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	seq := absorbed(0, reports)
	cells := seq.p.CellsPerCoordinate(seq.zbits)
	wantSnap := snapshot(seq)
	want := identifyAll(t, seq)
	if len(want) == 0 {
		t.Fatal("sequential round identified nothing; the equivalence check would be vacuous")
	}
	half := len(reports) / 2
	leafSnap := snapshot(absorbed(0, reports[half:]))

	// Coordinates 1 and M-1 each get a cell above their report count, in
	// the snapshot's version 1 rewrite.
	corrupt := blobv1.Snapshot(wantSnap)
	for _, c := range []int{1, seq.p.M - 1} {
		binary.BigEndian.PutUint64(corrupt[snapBlobOffset(corrupt, seq.p.M, c)+29:], math.Float64bits(1<<40))
	}

	matches := func(workers int, pr *Protocol, how string) {
		t.Helper()
		if !bytes.Equal(snapshot(pr), wantSnap) {
			t.Fatalf("workers=%d: snapshot after %s differs from the sequential aggregator's", workers, how)
		}
		assertIdenticalEstimates(t, identifyAll(t, pr), want)
	}
	var wantErr string
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		root := absorbed(workers, reports[:half])
		mergeErr, restoreErr := root.MergeSnapshot(corrupt), root.Restore(corrupt)
		if mergeErr == nil || restoreErr == nil {
			t.Fatalf("workers=%d: corrupt snapshot accepted (merge %v, restore %v)", workers, mergeErr, restoreErr)
		}
		if wantErr == "" {
			wantErr = mergeErr.Error()
			if !strings.Contains(wantErr, "coordinate 1:") {
				t.Fatalf("corrupt snapshot error %q does not name coordinate 1", wantErr)
			}
		}
		if mergeErr.Error() != wantErr || restoreErr.Error() != wantErr {
			t.Fatalf("workers=%d: errors %q / %q, want %q", workers, mergeErr, restoreErr, wantErr)
		}
		if err := root.MergeSnapshot(leafSnap); err != nil {
			t.Fatal(err)
		}
		matches(workers, root, "merge")

		restored := absorbed(workers, reports[:100])
		if err := restored.Restore(wantSnap); err != nil {
			t.Fatal(err)
		}
		matches(workers, restored, "restore")
	}
	return cells
}

// TestMergeSnapshotAddsFromSnapshotBytes pins the fan-in's memory cost:
// MergeSnapshot validates and adds the counters straight from the
// snapshot bytes, so one merge allocates only its own bookkeeping, under
// 4 KiB, where a decoded copy of the state would allocate all of its
// counters again (about 4.25 MB here).
func TestMergeSnapshotAddsFromSnapshotBytes(t *testing.T) {
	params := snapTestParams(41)
	leaf, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range snapTestReports(t, params, 2000) {
		if err := leaf.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := leaf.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	root, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := root.MergeSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<10); got >= limit {
		t.Fatalf("MergeSnapshot of a %d-byte snapshot allocated %d bytes, want under %d", len(snap), got, limit)
	}
}

// TestProtocolMergeFromEquivalence covers the in-process fold: leaves merge
// directly into the root without an explicit snapshot round trip.
func TestProtocolMergeFromEquivalence(t *testing.T) {
	const n = 12000
	params := snapTestParams(7)
	reports := snapTestReports(t, params, n)

	seq, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if err := seq.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	want := identifyAll(t, seq)

	root, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	for l := 0; l < k; l++ {
		leaf, err := New(params)
		if err != nil {
			t.Fatal(err)
		}
		for i := l; i < n; i += k {
			if err := leaf.Absorb(reports[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := root.MergeFrom(leaf); err != nil {
			t.Fatal(err)
		}
	}
	assertIdenticalEstimates(t, identifyAll(t, root), want)
}

// TestProtocolSnapshotRestoreResume covers checkpoint/resume: absorb half,
// snapshot, restore into a fresh protocol, absorb the rest — identical
// Identify output to the uninterrupted run.
func TestProtocolSnapshotRestoreResume(t *testing.T) {
	const n = 12000
	params := snapTestParams(99)
	reports := snapTestReports(t, params, n)

	a, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/2; i++ {
		if err := a.Absorb(reports[i]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	// Restore replaces state: pre-pollute b to prove the replacement is
	// total, not additive.
	for i := 0; i < 100; i++ {
		if err := b.Absorb(reports[n-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if b.TotalReports() != n/2 {
		t.Fatalf("restored protocol holds %d reports, want %d", b.TotalReports(), n/2)
	}
	for i := n / 2; i < n; i++ {
		if err := b.Absorb(reports[i]); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if err := c.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	assertIdenticalEstimates(t, identifyAll(t, b), identifyAll(t, c))
}

// TestUnclosedIdentifyKeepsOraclesAbsorbing: a reconstruction that
// finalizes every oracle but is never seen to succeed by the adapter (here
// the kernel body pr.identify, standing in for an Identify that fails or
// is cancelled after finalizing) leaves the round open and every oracle
// absorbing. The rest of the stream, a Snapshot and the real Identify then
// match an aggregator that never ran it, bit for bit.
func TestUnclosedIdentifyKeepsOraclesAbsorbing(t *testing.T) {
	const n = 12000
	params := snapTestParams(77)
	reports := snapTestReports(t, params, n)
	absorb := func(pr *Protocol, reports []Report) {
		t.Helper()
		for _, rep := range reports {
			if err := pr.Absorb(rep); err != nil {
				t.Fatal(err)
			}
		}
	}

	pr, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	absorb(pr, reports[:n/2])
	if _, err := pr.identify(); err != nil {
		t.Fatal(err)
	}
	absorb(pr, reports[n/2:])
	snap, err := pr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	ref, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	absorb(ref, reports)
	refSnap, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, refSnap) {
		t.Fatal("snapshot after the unclosed Identify differs from the reference's")
	}
	assertIdenticalEstimates(t, identifyAll(t, pr), identifyAll(t, ref))
}

func TestProtocolSnapshotValidation(t *testing.T) {
	params := snapTestParams(5)
	pr, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	reports := snapTestReports(t, params, 500)
	for _, rep := range reports {
		if err := pr.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := pr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *Protocol {
		p, err := New(params)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	t.Run("round trip", func(t *testing.T) {
		p := fresh()
		if err := p.Restore(snap); err != nil {
			t.Fatal(err)
		}
		out, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, snap) {
			t.Error("snapshot round trip not canonical")
		}
	})
	t.Run("fingerprint rejects different seed", func(t *testing.T) {
		other, err := New(snapTestParams(6))
		if err != nil {
			t.Fatal(err)
		}
		if err := other.Restore(snap); err == nil {
			t.Error("snapshot from different seed accepted")
		}
		if err := other.MergeSnapshot(snap); err == nil {
			t.Error("merge from different seed accepted")
		}
		if err := other.MergeFrom(pr); err == nil {
			t.Error("MergeFrom across seeds accepted")
		}
	})
	t.Run("fingerprint rejects different shape", func(t *testing.T) {
		p := snapTestParams(5)
		p.Y = 32
		other, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := other.Restore(snap); err == nil {
			t.Error("snapshot from different geometry accepted")
		}
	})
	t.Run("workers excluded from fingerprint", func(t *testing.T) {
		p := snapTestParams(5)
		p.Workers = 3
		other, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if other.Fingerprint() != pr.Fingerprint() {
			t.Error("Workers changed the fingerprint; it must stay a pure throughput knob")
		}
		if err := other.Restore(snap); err != nil {
			t.Errorf("snapshot rejected across worker counts: %v", err)
		}
	})
	// The rows corrupt the snapshot with every blob rewritten to version 1,
	// whose offsets are fixed: the 14-byte envelope ("LSNP" | version |
	// protocol ID | fingerprint), then the body's m u32 at 14, absorbed u64
	// at 18, the group counts from 26, and the blobs (see snapBlobOffset).
	// The v2 rows rewrite coordinate 0's version 2 blob in the snapshot as
	// written, whose cells start 29 bytes in with the first pair.
	m := pr.p.M
	v1 := blobv1.Snapshot(snap)
	setCell := func(b []byte, coord int, v float64) []byte {
		binary.BigEndian.PutUint64(b[snapBlobOffset(b, m, coord)+29:], math.Float64bits(v))
		return b
	}
	// firstPair splits coordinate 0's blob b around its first pair: the
	// run's and the value's varint lengths.
	firstPair := func(b []byte) (run, value int) {
		_, run = binary.Uvarint(b[29:])
		_, value = binary.Uvarint(b[29+run:])
		return run, value
	}
	// nonMinimal re-encodes the varint of n bytes at b[off:] with a
	// trailing zero group.
	nonMinimal := func(b []byte, off, n int) []byte {
		x, _ := binary.Uvarint(b[off:])
		enc := binary.AppendUvarint(nil, x)
		enc[len(enc)-1] |= 0x80
		return append(append(append(b[:off:off], enc...), 0), b[off+n:]...)
	}
	// setValue replaces the first pair's value with the varint of zz.
	setValue := func(b []byte, zz uint64) []byte {
		run, value := firstPair(b)
		off := 29 + run
		return append(binary.AppendUvarint(b[:off:off], zz), b[off+value:]...)
	}
	corruptions := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"truncated body", func(b []byte) []byte { return b[:len(b)/2] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }},
		{"wrong protocol ID", func(b []byte) []byte { b[5] = 0x03; return b }},
		{"corrupt fingerprint", func(b []byte) []byte { b[6] ^= 1; return b }},
		{"corrupt coordinate count", func(b []byte) []byte { b[17] ^= 1; return b }},
		{"corrupt group count", func(b []byte) []byte { b[26] ^= 1; return b }},
		{"negative total", func(b []byte) []byte { b[18] |= 0x80; return b }},
		{"NaN tail payload", func(b []byte) []byte {
			copy(b[len(b)-8:], []byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
			return b
		}},
		{"infinite cell in coordinate 0", func(b []byte) []byte { return setCell(b, 0, math.Inf(1)) }},
		{"non-integral cell in last coordinate", func(b []byte) []byte { return setCell(b, m-1, 0.5) }},
		{"cell above its coordinate's report count", func(b []byte) []byte {
			return setCell(b, 0, float64(binary.BigEndian.Uint64(b[26:])+1))
		}},
		{"corrupt confirmation row count", func(b []byte) []byte { b[snapBlobOffset(b, m, m)+13+7] ^= 1; return b }},
	}
	v2Corruptions := []struct {
		name string
		blob func([]byte) []byte // rewrites coordinate 0's blob
		want string              // the refusal the rewrite must meet
	}{
		{"v2 non-minimal run", func(b []byte) []byte {
			run, _ := firstPair(b)
			return nonMinimal(b, 29, run)
		}, "zero run at cell byte 0 is not a minimal 64-bit uvarint"},
		{"v2 non-minimal value", func(b []byte) []byte {
			run, value := firstPair(b)
			return nonMinimal(b, 29+run, value)
		}, "is not a minimal 64-bit uvarint"},
		{"v2 zero value", func(b []byte) []byte { return setValue(b, 0) }, "is a zero-valued entry"},
		{"v2 value above its coordinate's report count", func(b []byte) []byte {
			return setValue(b, 2*binary.BigEndian.Uint64(b[21:])+2)
		}, "which exceeds its report count"},
		{"v2 run past the table's end", func(b []byte) []byte {
			run, _ := firstPair(b)
			return append(binary.AppendUvarint(b[:29:29], 1<<40), b[29+run:]...)
		}, "passes the table's end"},
		{"v2 cut before the final run", func(b []byte) []byte {
			run, value := firstPair(b)
			return b[:29+run+value]
		}, "before its final zero run"},
		{"v2 byte after the final run", func(b []byte) []byte { return append(b, 0) }, "1 bytes after its final zero run"},
		{"v2 version byte 3", func(b []byte) []byte { b[4] = 3; return b }, "does not match"},
	}
	refused := func(t *testing.T, name string, buf []byte, want string) {
		// Atomicity: a failed load leaves a protocol that already holds
		// reports exactly as it was, so no counter was half committed.
		p := fresh()
		for _, rep := range reports[:200] {
			if err := p.Absorb(rep); err != nil {
				t.Fatal(err)
			}
		}
		before, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restoreErr, mergeErr := p.Restore(buf), p.MergeSnapshot(buf)
		if restoreErr == nil {
			t.Fatalf("%s accepted", name)
		}
		if mergeErr == nil {
			t.Fatalf("%s accepted by MergeSnapshot", name)
		}
		if !strings.Contains(restoreErr.Error(), want) || !strings.Contains(mergeErr.Error(), want) {
			t.Fatalf("%s: errors %q / %q, want %q", name, restoreErr, mergeErr, want)
		}
		if after, err := p.Snapshot(); err != nil || !bytes.Equal(after, before) {
			t.Errorf("%s mutated protocol state on failure (Snapshot err %v)", name, err)
		}
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) { refused(t, tc.name, tc.mutate(append([]byte(nil), v1...)), "") })
	}
	for _, tc := range v2Corruptions {
		t.Run(tc.name, func(t *testing.T) { refused(t, tc.name, withBlob(pr, snap, 0, tc.blob), tc.want) })
	}
	t.Run("after identify", func(t *testing.T) {
		p := fresh()
		if err := p.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Identify(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Snapshot(); err == nil {
			t.Error("Snapshot after Identify accepted")
		}
		if err := p.Restore(snap); err == nil {
			t.Error("Restore after Identify accepted")
		}
		if err := p.MergeSnapshot(snap); err == nil {
			t.Error("MergeSnapshot after Identify accepted")
		}
	})
}

// TestProtocolMergeSnapshotConcurrent merges leaf snapshots from concurrent
// goroutines while report traffic is still arriving — the root aggregator's
// real workload — and checks the total and the Identify output match the
// sequential reference. Run under -race this also proves the locking is
// sound.
func TestProtocolMergeSnapshotConcurrent(t *testing.T) {
	const n = 8000
	const k = 4
	params := snapTestParams(31)
	reports := snapTestReports(t, params, 2*n)
	direct, snapshotted := reports[:n], reports[n:]

	seq, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if err := seq.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	want := identifyAll(t, seq)

	snaps := make([][]byte, k)
	for l := 0; l < k; l++ {
		leaf, err := New(params)
		if err != nil {
			t.Fatal(err)
		}
		for i := l; i < n; i += k {
			if err := leaf.Absorb(snapshotted[i]); err != nil {
				t.Fatal(err)
			}
		}
		if snaps[l], err = leaf.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}

	root, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, k+1)
	for l := 0; l < k; l++ {
		go func(snap []byte) { errCh <- root.MergeSnapshot(snap) }(snaps[l])
	}
	go func() {
		for _, rep := range direct {
			if err := root.Absorb(rep); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	for i := 0; i < k+1; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if root.TotalReports() != 2*n {
		t.Fatalf("root holds %d reports, want %d", root.TotalReports(), 2*n)
	}
	assertIdenticalEstimates(t, identifyAll(t, root), want)
}
