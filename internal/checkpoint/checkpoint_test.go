package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, WithFingerprint(0xdeadbeef))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("accumulated sketch state")
	info, err := m.Save(payload)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 {
		t.Fatalf("first checkpoint seq = %d, want 1", info.Seq)
	}
	if info.Fingerprint != 0xdeadbeef {
		t.Fatalf("info fingerprint = %#x, want 0xdeadbeef", info.Fingerprint)
	}
	got, gi, err := m.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %q", got)
	}
	if gi.Seq != 1 || gi.Bytes != len(payload) {
		t.Fatalf("info = %+v", gi)
	}
	if gi.Time.IsZero() {
		t.Fatal("info.Time is zero")
	}
}

func TestLoadNewestPicksNewest(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Save([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got, info, err := m.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 3 || !bytes.Equal(got, []byte{2}) {
		t.Fatalf("loaded seq %d payload %v, want seq 3 payload [2]", info.Seq, got)
	}
}

func TestNoCheckpoint(t *testing.T) {
	m, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.LoadNewest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir LoadNewest error = %v, want ErrNoCheckpoint", err)
	}
}

func TestSequenceResumesAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Save([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Save([]byte("b")); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	info, err := m2.Save([]byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 3 {
		t.Fatalf("post-reopen save seq = %d, want 3 (numbering must resume, not restart)", info.Seq)
	}
}

func TestRetentionPrunesOldest(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, WithRetain(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Save([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seqs := m.liveSeqs()
	if len(seqs) != 2 || seqs[0] != 4 || seqs[1] != 5 {
		t.Fatalf("live seqs after retention = %v, want [4 5]", seqs)
	}
}

func TestRetainMinimumIsTwo(t *testing.T) {
	m, err := Open(t.TempDir(), WithRetain(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.retain != 2 {
		t.Fatalf("retain clamped to %d, want 2 (torn-file fallback needs a second file)", m.retain)
	}
}

// TestTornFileFallsBack is the crash-mid-write story: the newest file is
// truncated (as if power died during the write or the rename raced a
// crash) and LoadNewest must recover the previous intact checkpoint
// instead of failing or returning garbage.
func TestTornFileFallsBack(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Save([]byte("good old state")); err != nil {
		t.Fatal(err)
	}
	info2, err := m.Save([]byte("doomed new state"))
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":           func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip":             func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b },
		"shorter than header": func(b []byte) []byte { return b[:7] },
		"bad magic":           func(b []byte) []byte { b[0] = 'X'; return b },
	} {
		t.Run(name, func(t *testing.T) {
			orig, err := os.ReadFile(info2.Path)
			if err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(info2.Path, orig, 0o644) //nolint:errcheck // restore for the next subtest
			buf := append([]byte(nil), orig...)
			if err := os.WriteFile(info2.Path, mutate(buf), 0o644); err != nil {
				t.Fatal(err)
			}
			got, info, err := m.LoadNewest()
			if err != nil {
				t.Fatalf("LoadNewest with corrupt newest: %v", err)
			}
			if info.Seq != 1 || string(got) != "good old state" {
				t.Fatalf("recovered seq %d payload %q, want the seq-1 fallback", info.Seq, got)
			}
		})
	}
}

// TestFingerprintMismatchIsFatal pins the policy that a parameter mismatch
// does NOT fall back to an older file: the operator restarted the server
// under different parameters and must be told, not silently handed a
// stale round.
func TestFingerprintMismatchIsFatal(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(dir, WithFingerprint(0x1111))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Save([]byte("round state")); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, WithFingerprint(0x2222))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m2.LoadNewest(); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("mismatched manager LoadNewest error = %v, want ErrFingerprintMismatch", err)
	}
}

func TestUnfingerprintedManagerAcceptsAnyStamp(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(dir, WithFingerprint(0x1111))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Save([]byte("x")); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir) // no expected fingerprint => file-level check off
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m2.LoadNewest(); err != nil {
		t.Fatalf("unpinned LoadNewest: %v", err)
	}
}

func TestOpenCleansStaleTemporaries(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, tmpPrefix+"123456")
	if err := os.WriteFile(stale, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp file survived Open: %v", err)
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ckpt-zzzz.lckf"), []byte("bad seq"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.seq != 0 {
		t.Fatalf("foreign files influenced seq = %d", m.seq)
	}
	if _, _, err := m.LoadNewest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("LoadNewest over foreign files = %v, want ErrNoCheckpoint", err)
	}
}

func TestEmptyPayloadRoundtrips(t *testing.T) {
	m, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Save(nil); err != nil {
		t.Fatal(err)
	}
	got, info, err := m.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || info.Bytes != 0 {
		t.Fatalf("empty payload came back as %v (%d bytes)", got, info.Bytes)
	}
}

func TestFileNameFormat(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Save([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(info.Path)
	if !strings.HasPrefix(base, filePrefix) || !strings.HasSuffix(base, fileSuffix) {
		t.Fatalf("checkpoint file name %q does not match %s*%s", base, filePrefix, fileSuffix)
	}
	if seq, ok := seqOf(base); !ok || seq != 1 {
		t.Fatalf("seqOf(%q) = %d, %v", base, seq, ok)
	}
}
