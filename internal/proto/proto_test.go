package proto

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// The proto package sits below every protocol package, so its own test
// binary sees no real codecs — register one synthetic codec and exercise
// the registry machinery against it.
const (
	testID      byte = 0x7e
	testVersion byte = 3
	testPayload      = 4
)

var registerTestCodecOnce sync.Once

// registerTestCodec installs the synthetic codec exactly once per test
// binary (Register panics on duplicates by design).
func registerTestCodec() {
	registerTestCodecOnce.Do(func() {
		Register(Codec{ID: testID, Name: "testcodec", Version: testVersion, PayloadBytes: testPayload})
	})
}

func TestRegistryLookup(t *testing.T) {
	registerTestCodec()
	c, ok := Lookup(testID)
	if !ok {
		t.Fatal("registered codec not found by ID")
	}
	if c.Name != "testcodec" || c.FrameBytes() != 2+testPayload {
		t.Fatalf("lookup returned %+v", c)
	}
	if _, ok := Lookup(0x6f); ok {
		t.Error("unregistered ID found")
	}
	byName, ok := LookupName("testcodec")
	if !ok || byName.ID != testID {
		t.Fatalf("LookupName = %+v, %v", byName, ok)
	}
	found := false
	for _, c := range Codecs() {
		if c.ID == testID {
			found = true
		}
	}
	if !found {
		t.Error("Codecs() omits the registered codec")
	}
}

func TestRegisterRejectsCollisionsAndWildcard(t *testing.T) {
	registerTestCodec()
	mustPanic := func(name string, c Codec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(c)
	}
	mustPanic("duplicate ID", Codec{ID: testID, Name: "other", Version: 1, PayloadBytes: 1})
	mustPanic("duplicate name", Codec{ID: 0x6d, Name: "testcodec", Version: 1, PayloadBytes: 1})
	mustPanic("wildcard ID", Codec{ID: IDWildcard, Name: "wild", Version: 1, PayloadBytes: 1})
	mustPanic("no payload bytes", Codec{ID: 0x6c, Name: "nopayload", Version: 1})
}

func TestWireReportAccessors(t *testing.T) {
	wr := NewWireReport(testID, testVersion, []byte{1, 2, 3, 4})
	if wr.ProtocolID() != testID || wr.Version() != testVersion {
		t.Fatalf("header accessors: %#02x v%d", wr.ProtocolID(), wr.Version())
	}
	if !bytes.Equal(wr.Payload(), []byte{1, 2, 3, 4}) {
		t.Fatalf("payload = %x", wr.Payload())
	}
	// NewWireReport copies: mutating the source must not change the report.
	src := []byte{9, 9}
	wr2 := NewWireReport(1, 1, src)
	src[0] = 0
	if wr2.Payload()[0] != 9 {
		t.Error("NewWireReport aliased the payload")
	}
	// Degenerate reports answer zero values, never panic.
	var empty WireReport
	if empty.ProtocolID() != IDWildcard || empty.Version() != 0 || empty.Payload() != nil {
		t.Error("empty report accessors not zero-valued")
	}
}

func TestCheckHeader(t *testing.T) {
	registerTestCodec()
	good := NewWireReport(testID, testVersion, []byte{0, 1, 2, 3})
	if err := CheckHeader(good, testID); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	if err := CheckHeader(good, 0x6a); err == nil {
		t.Error("unregistered expected ID accepted")
	}
	if err := CheckHeader(good[:3], testID); err == nil {
		t.Error("wrong length accepted")
	}
	other := NewWireReport(0x22, testVersion, []byte{0, 1, 2, 3})
	if err := CheckHeader(other, testID); err == nil {
		t.Error("foreign protocol ID accepted")
	}
	stale := NewWireReport(testID, testVersion+1, []byte{0, 1, 2, 3})
	if err := CheckHeader(stale, testID); err == nil {
		t.Error("stale codec version accepted")
	}
}

// TestRoundStateDecodeSizedByBytes pins that DecodeRoundState sizes its
// candidate list by the bytes that hold it: a 26-byte broadcast claiming
// 2^22 candidates is refused without allocating for the claim.
func TestRoundStateDecodeSizedByBytes(t *testing.T) {
	b := make([]byte, 26)
	b[0] = roundStateVersion
	binary.BigEndian.PutUint32(b[22:], maxRoundCandidates)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeRoundState(b)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "candidate 0 length truncated") {
		t.Fatalf("hostile round state: err = %v, want candidate 0 length truncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing a %d-byte round state allocated %d bytes, want under 1 MiB", len(b), got)
	}
}
