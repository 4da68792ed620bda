package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ldphh/internal/freqoracle"
	"ldphh/internal/proto"
)

// pesFrameBytes is the PES wire frame length as the codec registry states
// it.
func pesFrameBytes(t testing.TB) int {
	t.Helper()
	codec, ok := proto.Lookup(proto.IDPrivateExpanderSketch)
	if !ok {
		t.Fatal("PES codec not registered")
	}
	return codec.FrameBytes()
}

func TestFrameRoundtrip(t *testing.T) {
	reps := []Report{
		{M: 0, Dir: freqoracle.DirectReport{Col: 0, Bit: 1},
			Conf: freqoracle.HashtogramReport{Row: 0, Col: 0, Bit: -1}},
		{M: 15, Dir: freqoracle.DirectReport{Col: 1 << 20, Bit: -1},
			Conf: freqoracle.HashtogramReport{Row: 31, Col: 12345, Bit: 1}},
		{M: 65535, Dir: freqoracle.DirectReport{Col: ^uint32(0), Bit: 1},
			Conf: freqoracle.HashtogramReport{Row: 65535, Col: ^uint32(0), Bit: 1}},
	}
	for _, rep := range reps {
		buf, err := EncodeReportWire(rep)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != pesFrameBytes(t) {
			t.Fatalf("frame size %d", len(buf))
		}
		got, err := DecodeReportWire(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != rep {
			t.Fatalf("roundtrip mismatch: %+v != %+v", got, rep)
		}
	}
}

// TestProtocolSharesItsWireLifecycle pins that a Protocol and its PESWire
// are one aggregator: Wire returns the same adapter on every call, typed
// and wire absorbs count into one tally, and an Identify on one path
// closes the round for both.
func TestProtocolSharesItsWireLifecycle(t *testing.T) {
	pr, err := New(testParams(1000, 3))
	if err != nil {
		t.Fatal(err)
	}
	w := pr.Wire()
	if pr.Wire() != w {
		t.Fatal("Wire built a second adapter")
	}
	rep, err := pr.Report([]byte{1, 2, 3, 4}, 0, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	wr, err := EncodeReportWire(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Absorb(rep); err != nil {
		t.Fatal(err)
	}
	if err := w.Absorb(wr); err != nil {
		t.Fatal(err)
	}
	if pr.TotalReports() != 2 || w.TotalReports() != 2 {
		t.Fatalf("TotalReports %d (typed), %d (wire), want 2", pr.TotalReports(), w.TotalReports())
	}
	if _, err := w.Identify(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := pr.Absorb(rep); !errors.Is(err, proto.ErrRoundClosed) {
		t.Errorf("typed Absorb after a wire Identify: err = %v, want ErrRoundClosed", err)
	}
	if _, err := pr.Identify(); !errors.Is(err, proto.ErrRoundClosed) {
		t.Errorf("typed Identify after a wire Identify: err = %v, want ErrRoundClosed", err)
	}
	if _, err := pr.Snapshot(); !errors.Is(err, proto.ErrRoundClosed) {
		t.Errorf("typed Snapshot after a wire Identify: err = %v, want ErrRoundClosed", err)
	}
	if pr.TotalReports() != 2 {
		t.Errorf("TotalReports after Identify = %d, want 2", pr.TotalReports())
	}
}

func TestFrameValidation(t *testing.T) {
	if _, err := EncodeReportWire(Report{M: 1 << 17}); err == nil {
		t.Error("oversized group accepted")
	}
	if _, err := DecodeReportWire(make([]byte, 3)); err == nil {
		t.Error("short frame accepted")
	}
	bad := make([]byte, pesFrameBytes(t))
	bad[0] = 99
	if _, err := DecodeReportWire(bad); err == nil {
		t.Error("unknown protocol ID accepted")
	}
	bad[0] = proto.IDBitstogram
	if _, err := DecodeReportWire(bad); err == nil {
		t.Error("frame from another protocol accepted")
	}
	bad[0] = proto.IDPrivateExpanderSketch
	bad[1] = 99
	if _, err := DecodeReportWire(bad); err == nil {
		t.Error("bad codec version accepted")
	}
	bad[1] = pesWireVersion
	bad[8] = 7 // the direct-report bit byte
	if _, err := DecodeReportWire(bad); err == nil {
		t.Error("bad bit byte accepted")
	}
}

// TestFrameSizePinnedToBytesPerReport pins the three places a report's wire
// size is spoken for — the shared payload constant, the frame encoder's
// actual output, and the Table 1 communication metric — to one value.
// BytesPerReport is the payload (comparable with the baselines, which also
// report framing-free sizes); the wire frame adds exactly the 2-byte
// [protocol ID][codec version] header every protocol's reports carry. A
// drift in any of them (the historical bug: the two constants were written
// down independently) fails here.
func TestFrameSizePinnedToBytesPerReport(t *testing.T) {
	codec, ok := proto.Lookup(proto.IDPrivateExpanderSketch)
	if !ok {
		t.Fatal("PES codec not registered")
	}
	if codec.FrameBytes() != 2+ReportPayloadBytes {
		t.Fatalf("registry frame size %d, want 2 + ReportPayloadBytes = %d", codec.FrameBytes(), 2+ReportPayloadBytes)
	}
	if codec.PayloadBytes != ReportPayloadBytes {
		t.Fatalf("registry payload %d, ReportPayloadBytes = %d", codec.PayloadBytes, ReportPayloadBytes)
	}
	p, err := New(Params{Eps: 2, N: 1000, ItemBytes: 4, Y: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.BytesPerReport(); got != ReportPayloadBytes {
		t.Fatalf("BytesPerReport() = %d, ReportPayloadBytes = %d", got, ReportPayloadBytes)
	}
	rep, err := p.Report([]byte{1, 2, 3, 4}, 0, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := EncodeReportWire(rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != p.BytesPerReport()+2 {
		t.Fatalf("encoded frame is %d bytes, want payload %d + 2 header bytes", len(buf), p.BytesPerReport())
	}
	if len(buf) != codec.FrameBytes() {
		t.Fatalf("encoded frame is %d bytes, registry frame size %d", len(buf), codec.FrameBytes())
	}
}

// FuzzDecodeReport: arbitrary bytes must never panic the decoder, and any
// frame it accepts must re-encode to the identical bytes (canonical form).
func FuzzDecodeReport(f *testing.F) {
	frameBytes := pesFrameBytes(f)
	f.Add(make([]byte, frameBytes))
	// Frame layout: [ID][version] + payload (m u16 | dir col u32 | dir bit |
	// conf row u16 | conf col u32 | conf bit) — bits at offsets 8 and 15.
	good := make([]byte, frameBytes)
	good[0] = proto.IDPrivateExpanderSketch
	good[1] = pesWireVersion
	good[8] = 1
	good[15] = 1
	f.Add(good)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, frameBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCanonical(t, data)
	})
}

// checkCanonical is the FuzzDecodeReport invariant: a rejected frame is
// fine (not panicking is the point), an accepted one must re-encode to the
// identical bytes.
func checkCanonical(t *testing.T, data []byte) {
	t.Helper()
	rep, err := DecodeReportWire(data)
	if err != nil {
		return
	}
	out, err := EncodeReportWire(rep)
	if err != nil {
		t.Fatalf("decoded frame failed to re-encode: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("decode/encode not canonical: %x -> %x", data, []byte(out))
	}
}

// corpusDir holds the checked-in seed corpus for FuzzDecodeReport. The Go
// fuzzer picks these up automatically when run with -fuzz, and
// TestDecodeReportCorpus replays them deterministically in every plain
// `go test` run so promoted regressions stay covered without the fuzzer.
const corpusDir = "testdata/fuzz/FuzzDecodeReport"

// readCorpusEntry parses one file in Go's `go test fuzz v1` corpus format:
// a version header line followed by one []byte("...") literal per fuzz
// argument (FuzzDecodeReport takes exactly one).
func readCorpusEntry(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		return nil, fmt.Errorf("corpus file %s: want version header plus one value line, got %d lines", path, len(lines))
	}
	lit := lines[1]
	const prefix, suffix = `[]byte(`, `)`
	if !strings.HasPrefix(lit, prefix) || !strings.HasSuffix(lit, suffix) {
		return nil, fmt.Errorf("corpus file %s: value %q is not a []byte literal", path, lit)
	}
	s, err := strconv.Unquote(lit[len(prefix) : len(lit)-len(suffix)])
	if err != nil {
		return nil, fmt.Errorf("corpus file %s: %w", path, err)
	}
	return []byte(s), nil
}

// TestDecodeReportCorpus replays the seed corpus through the same invariant
// FuzzDecodeReport enforces: the decoder never panics, and any frame it
// accepts re-encodes to the identical bytes (canonical form).
func TestDecodeReportCorpus(t *testing.T) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("reading seed corpus: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("seed corpus is empty")
	}
	// Guard against the corpus degenerating into rejects only: at least one
	// entry must exercise the canonical-form half of the invariant. Counted
	// in the parent so -run filters over the subtests cannot skew it.
	accepted := 0
	for _, entry := range entries {
		if entry.IsDir() {
			continue
		}
		data, err := readCorpusEntry(filepath.Join(corpusDir, entry.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeReportWire(data); err == nil {
			accepted++
		}
		t.Run(entry.Name(), func(t *testing.T) {
			checkCanonical(t, data)
		})
	}
	if accepted == 0 {
		t.Error("no corpus entry decodes successfully; canonical-form invariant untested")
	}
}

func BenchmarkEncodeReport(b *testing.B) {
	rep := Report{
		M:    7,
		Dir:  freqoracle.DirectReport{Col: 12345, Bit: 1},
		Conf: freqoracle.HashtogramReport{Row: 3, Col: 999, Bit: -1},
	}
	for i := 0; i < b.N; i++ {
		if _, err := EncodeReportWire(rep); err != nil {
			b.Fatal(err)
		}
	}
}
