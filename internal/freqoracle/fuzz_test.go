package freqoracle

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ldphh/internal/blobv1"
)

// FuzzRestoreSnapshot: arbitrary bytes must never panic either oracle's
// Restore — truncated, oversize, NaN/Inf-payload, non-canonical and
// shape-mismatched inputs are rejected with errors — and any blob an
// oracle accepts must be written again by its Snapshot (both formats are
// canonical, so accepted state round-trips bit for bit): a version 2 blob
// byte for byte, a version 1 blob once the re-serialization is rewritten
// to version 1. Restore is atomic, which is what makes reusing one oracle
// across fuzz iterations sound: an accepted input replaces the whole
// state, a rejected one touches nothing.
func FuzzRestoreSnapshot(f *testing.F) {
	params := HashtogramParams{Eps: 1, N: 100, Rows: 2, T: 4, Seed: 1}
	h, err := NewHashtogram(params)
	if err != nil {
		f.Fatal(err)
	}
	d, err := NewDirectHistogram(1, 3)
	if err != nil {
		f.Fatal(err)
	}
	// Live seeds on top of the checked-in corpus: real snapshots of both
	// oracles in both versions, plus a bit-flip sweep over a valid one in
	// each version so the fuzzer starts at every header boundary.
	hsnap, err := h.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	dsnap, err := d.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hsnap)
	f.Add(dsnap)
	f.Add(blobv1.Blob(hsnap))
	f.Add(blobv1.Blob(dsnap))
	f.Add(hsnap[:len(hsnap)-1])
	f.Add(append(append([]byte(nil), dsnap...), 0))
	for _, snap := range [][]byte{hsnap, blobv1.Blob(hsnap)} {
		for i := 0; i < len(snap); i += 7 {
			mut := append([]byte(nil), snap...)
			mut[i] ^= 0x80
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := h.Restore(data); err == nil {
			out, err := h.Snapshot()
			if err != nil {
				t.Fatalf("accepted hashtogram snapshot failed to re-serialize: %v", err)
			}
			if !reserialized(data, out) {
				t.Fatalf("hashtogram snapshot not canonical: %x -> %x", data, out)
			}
		}
		if err := d.Restore(data); err == nil {
			out, err := d.Snapshot()
			if err != nil {
				t.Fatalf("accepted direct snapshot failed to re-serialize: %v", err)
			}
			if !reserialized(data, out) {
				t.Fatalf("direct snapshot not canonical: %x -> %x", data, out)
			}
		}
	})
}

// reserialized reports whether out, the blob an oracle wrote after it
// restored in, is in written again: byte for byte for a version 2 blob,
// and once rewritten to version 1 for a version 1 blob.
func reserialized(in, out []byte) bool {
	if in[4] == blobV1 {
		out = blobv1.Blob(out)
	}
	return bytes.Equal(in, out)
}

// TestRestoreRejectsCorpusSeeds restores every committed FuzzRestoreSnapshot
// seed into both of the fuzz target's oracles and requires the outcome the
// seed's name promises, so the corpus carries its coverage in plain go
// test: a valid-* seed loads into its own oracle and re-serializes to the
// same bytes (rewritten to version 1 for a version 1 seed), and every
// other seed is refused by its named check. A version 1 seed sized for one
// oracle is refused by the other on its length, any other seed on its
// header. Every seed file must have a row here, and every row a file.
func TestRestoreRejectsCorpusSeeds(t *testing.T) {
	const both = ""
	seeds := map[string]struct{ oracle, want string }{
		"bad-magic":                         {"hashtogram", "does not match"},
		"cell-sum-over-n-direct":            {"direct", "exceeds its report count 1"},
		"cell-sum-over-rowcount-hashtogram": {"hashtogram", "exceeds its report count 1"},
		"empty":                             {both, "snapshot length 0, want"},
		"inf-payload-direct":                {"direct", "not finite"},
		"nan-payload-hashtogram":            {"hashtogram", "not finite"},
		"negative-rowcount":                 {"hashtogram", "exceeds report-tally bound"},
		"negzero-cell-hashtogram":           {"hashtogram", "not canonical"},
		"noninteger-cell-direct":            {"direct", "not an integral report tally"},
		"overflow-rowcount-sum-hashtogram":  {"hashtogram", "total report count exceeds bound"},
		"oversize-cell-hashtogram":          {"hashtogram", "not an integral report tally"},
		"oversize-hashtogram":               {"hashtogram", "snapshot length 94, want 93"},
		"oversize-n-direct":                 {"direct", "exceeds report-tally bound"},
		"oversize-rowcount-hashtogram":      {"hashtogram", "exceeds report-tally bound"},
		"shape-mismatch":                    {"hashtogram", "does not match"},
		"truncated-hashtogram":              {"hashtogram", "snapshot length 92, want 93"},
		"valid-direct":                      {"direct", ""},
		"valid-hashtogram":                  {"hashtogram", ""},

		"valid-hashtogram-v2":                  {"hashtogram", ""},
		"valid-direct-v2":                      {"direct", ""},
		"overlong-run-hashtogram-v2":           {"hashtogram", "zero run at cell byte 0 is not a minimal 64-bit uvarint"},
		"overlong-value-direct-v2":             {"direct", "value at cell byte 1 is not a minimal 64-bit uvarint"},
		"zero-value-hashtogram-v2":             {"hashtogram", "cell 1 is a zero-valued entry"},
		"run-past-end-direct-v2":               {"direct", "zero run of 2 cells from cell 3 passes the table's end at cell 4"},
		"no-final-run-hashtogram-v2":           {"hashtogram", "ends at cell byte 4, before its final zero run"},
		"byte-after-final-run-direct-v2":       {"direct", "1 bytes after its final zero run"},
		"cell-sum-over-rowcount-hashtogram-v2": {"hashtogram", "exceeds its report count 1"},
		"version-3-hashtogram":                 {"hashtogram", "does not match"},
	}
	type oracle interface {
		v1Len() int
		Restore([]byte) error
		Snapshot() ([]byte, error)
	}
	h, err := NewHashtogram(HashtogramParams{Eps: 1, N: 100, Rows: 2, T: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDirectHistogram(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	oracles := map[string]oracle{"hashtogram": h, "direct": d}
	dir := filepath.Join("testdata", "fuzz", "FuzzRestoreSnapshot")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(seeds) {
		t.Errorf("%d seed files, %d rows", len(files), len(seeds))
	}
	for _, f := range files {
		seed, ok := seeds[f.Name()]
		if !ok {
			t.Errorf("seed %s has no expected outcome", f.Name())
			continue
		}
		data := readCorpusBytes(t, filepath.Join(dir, f.Name()))
		for name, o := range oracles {
			want := seed.want
			switch {
			case seed.oracle == both || seed.oracle == name:
			case len(data) <= 4 || data[4] == blobV1:
				want = fmt.Sprintf("snapshot length %d, want %d", len(data), o.v1Len())
			default:
				want = "does not match"
			}
			err := o.Restore(data)
			switch {
			case want == "" && err != nil:
				t.Errorf("%s into %s: %v, want acceptance", f.Name(), name, err)
			case want == "":
				if out, _ := o.Snapshot(); !reserialized(data, out) {
					t.Errorf("%s into %s: re-serialized as %x", f.Name(), name, out)
				}
			case err == nil || !strings.Contains(err.Error(), want):
				t.Errorf("%s into %s: %v, want an error containing %q", f.Name(), name, err, want)
			}
		}
	}
}

// readCorpusBytes reads the one []byte value of a "go test fuzz v1" file.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(value, "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	if header != "go test fuzz v1" || !ok || !ok2 {
		t.Fatalf("%s is not a one-value []byte corpus file", path)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
