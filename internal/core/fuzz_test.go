package core

import (
	"math/rand/v2"
	"testing"

	"ldphh/internal/blobv1"
)

// fuzzParams is a deliberately tiny configuration (4 coordinates of 4096
// cells each) so each fuzz execution's Restore/Snapshot round trip stays
// cheap while still exercising every section of the LPSK format.
func fuzzParams() Params {
	return Params{Eps: 1, N: 50, ItemBytes: 1, Y: 2, Seed: 9}
}

// FuzzRestoreSnapshot: arbitrary bytes must never panic Protocol.Restore.
// Truncated, oversize, NaN/Inf-payload, non-canonical, shape-mismatched
// and fingerprint-mismatched inputs are rejected with errors before any
// state changes; any input that IS accepted must be written again by
// Snapshot, because the snapshot format is canonical for a fixed
// parameter set: an envelope over version 2 blobs byte for byte, and any
// other input (a pre-envelope LPSK header, or version 1 blobs) once it
// carries the envelope and both have every blob rewritten to version 1.
func FuzzRestoreSnapshot(f *testing.F) {
	pr, err := New(fuzzParams())
	if err != nil {
		f.Fatal(err)
	}
	// Live seeds: a real snapshot with absorbed reports (the only way to get
	// the correct fingerprint into the corpus), plus truncations and
	// bit-flips at header boundaries.
	seed, err := New(fuzzParams())
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 32; i++ {
		rep, err := seed.Report([]byte{byte(i % 5)}, i, rng)
		if err != nil {
			f.Fatal(err)
		}
		if err := seed.Absorb(rep); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := seed.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(blobv1.Snapshot(snap))
	f.Add(snap[:26])
	f.Add(snap[:len(snap)-1])
	f.Add(append(append([]byte(nil), snap...), 0))
	// Envelope fields at 0, 4, 5 and 6; body fields from 14 on.
	for _, i := range []int{0, 4, 5, 6, 14, 18, 26, 58, 62, len(snap) - 8} {
		mut := append([]byte(nil), snap...)
		mut[i] ^= 0x80
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := pr.Restore(data); err != nil {
			return
		}
		out, err := pr.Snapshot()
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-serialize: %v", err)
		}
		// An accepted input without the 14-byte envelope carried the 13-byte
		// LPSK v1 header before its body.
		if !blobv1.Reserialized(data, out, 13) {
			t.Fatalf("protocol snapshot not canonical: %d bytes in, %d bytes out", len(data), len(out))
		}
	})
}
