package interactive

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"ldphh/internal/proto"
)

// testParams is the suite's small-but-real configuration: 16-bit items
// discovered over 4 rounds of 4 bits.
func testParams(mode Mode) Params {
	return Params{Mode: mode, Eps: 4, N: 6000, ItemBytes: 2, TopK: 8, Seed: 7}
}

// plantedItem returns user i's value in the planted workload: 40% of users
// hold item 0x1234, 30% hold 0xBEEF, the rest spread over a light tail.
func plantedItem(i int) []byte {
	switch {
	case i%10 < 4:
		return []byte{0x12, 0x34}
	case i%10 < 7:
		return []byte{0xBE, 0xEF}
	default:
		return []byte{0x40, byte(40 + i%97)}
	}
}

// drive runs the whole interactive protocol in process against eng: each
// round, the round's group reports with its deterministic per-round
// sub-stream, then the round advances. Returns the final estimates.
func drive(t *testing.T, eng *Engine, n int, item func(int) []byte) []proto.Estimate {
	t.Helper()
	p := eng.Params()
	for r := 0; r < eng.rounds; r++ {
		for u := 0; u < n; u++ {
			if eng.Group(u) != r {
				continue
			}
			rep, err := eng.Report(item(u), u, RoundRand(p.Seed, r, u))
			if err != nil {
				t.Fatalf("round %d user %d Report: %v", r, u, err)
			}
			if err := eng.Absorb(rep); err != nil {
				t.Fatalf("round %d user %d Absorb: %v", r, u, err)
			}
		}
		rs, err := eng.AdvanceRound()
		if err != nil {
			t.Fatalf("AdvanceRound after round %d: %v", r, err)
		}
		if rs.Done {
			break
		}
	}
	if !eng.Done() {
		t.Fatal("protocol not done after all rounds")
	}
	est, err := eng.Identify()
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestDiscoveryBothModes proves both kinds recover the planted heavy items
// from an open 16-bit domain — no candidate list anywhere — with the
// heaviest item ranked first.
func TestDiscoveryBothModes(t *testing.T) {
	for _, mode := range []Mode{ModePEM, ModeFedTrie} {
		t.Run(mode.String(), func(t *testing.T) {
			eng, err := NewEngine(testParams(mode))
			if err != nil {
				t.Fatal(err)
			}
			p := eng.Params()
			est := drive(t, eng, p.N, plantedItem)
			if len(est) < 2 {
				t.Fatalf("identified %d items, want at least the two planted ones", len(est))
			}
			if !bytes.Equal(est[0].Item, []byte{0x12, 0x34}) {
				t.Errorf("top item = %x, want 1234", est[0].Item)
			}
			if !bytes.Equal(est[1].Item, []byte{0xBE, 0xEF}) {
				t.Errorf("second item = %x, want beef", est[1].Item)
			}
			// Population-scaled counts should land near the true 40% / 30%.
			if est[0].Count < 0.25*float64(p.N) || est[0].Count > 0.55*float64(p.N) {
				t.Errorf("top estimate %.0f far from true %d", est[0].Count, p.N*4/10)
			}
		})
	}
}

// TestGroupPartition checks the public group assignment covers every round
// with a roughly balanced share of the population.
func TestGroupPartition(t *testing.T) {
	eng, err := NewEngine(testParams(ModePEM))
	if err != nil {
		t.Fatal(err)
	}
	p := eng.Params()
	counts := make([]int, eng.rounds)
	for u := 0; u < p.N; u++ {
		g := eng.Group(u)
		if g < 0 || g >= eng.rounds {
			t.Fatalf("user %d assigned to group %d of %d", u, g, eng.rounds)
		}
		counts[g]++
	}
	expect := p.N / eng.rounds
	for r, c := range counts {
		if c < expect/2 || c > expect*2 {
			t.Errorf("group %d holds %d users, expected near %d", r, c, expect)
		}
	}
}

// TestRoundGating pins the round state machine's rejections: reports for a
// round other than the open one, reports from the wrong group, absorption
// and advancing after done.
func TestRoundGating(t *testing.T) {
	eng, err := NewEngine(testParams(ModePEM))
	if err != nil {
		t.Fatal(err)
	}
	p := eng.Params()
	// A user in a later group must get ErrNotInRound in round 0.
	later := -1
	for u := 0; u < p.N; u++ {
		if eng.Group(u) != 0 {
			later = u
			break
		}
	}
	if _, err := eng.Report(plantedItem(later), later, RoundRand(p.Seed, 0, later)); !errors.Is(err, ErrNotInRound) {
		t.Errorf("Report from group %d in round 0: err = %v, want ErrNotInRound", eng.Group(later), err)
	}
	// A stale round stamp is rejected.
	if err := eng.Absorb(RoundReport{Round: 1, Col: 0, Bit: 1}); err == nil {
		t.Error("Absorb of a round-1 report into round 0 succeeded")
	}
	if eng.roundReports != 0 {
		t.Errorf("rejected reports counted: roundReports = %d", eng.roundReports)
	}
	// Identify before done is an error.
	if _, err := eng.Identify(); err == nil {
		t.Error("Identify before the final round succeeded")
	}
	drive(t, eng, p.N, plantedItem)
	if err := eng.Absorb(RoundReport{Round: eng.rounds - 1, Col: 0, Bit: 1}); err == nil {
		t.Error("Absorb after done succeeded")
	}
	if _, err := eng.AdvanceRound(); err == nil {
		t.Error("AdvanceRound after done succeeded")
	}
}

// TestSetRoundStateValidation pins the broadcast install checks: Done
// states, schedule mismatches and non-canonical candidate sets are all
// rejected without touching the open round.
func TestSetRoundStateValidation(t *testing.T) {
	eng, err := NewEngine(testParams(ModePEM))
	if err != nil {
		t.Fatal(err)
	}
	good := eng.RoundState()
	cases := map[string]func(rs *proto.RoundState){
		"done state":         func(rs *proto.RoundState) { rs.Done = true },
		"wrong rounds":       func(rs *proto.RoundState) { rs.Rounds++ },
		"round out of range": func(rs *proto.RoundState) { rs.Round = rs.Rounds },
		"wrong width":        func(rs *proto.RoundState) { rs.PrefixBits++ },
		"empty candidates":   func(rs *proto.RoundState) { rs.Candidates = nil },
		"unsorted": func(rs *proto.RoundState) {
			rs.Candidates[0], rs.Candidates[1] = rs.Candidates[1], rs.Candidates[0]
		},
		"duplicate": func(rs *proto.RoundState) { rs.Candidates[1] = rs.Candidates[0] },
		"trailing bits": func(rs *proto.RoundState) {
			rs.Candidates[0] = []byte{0x01} // width 4: low nibble must be zero
		},
	}
	for name, sabotage := range cases {
		rs := eng.RoundState() // fresh deep copy per case
		sabotage(&rs)
		if err := eng.SetRoundState(rs); err == nil {
			t.Errorf("%s: SetRoundState succeeded", name)
		}
	}
	if got := eng.RoundState(); got.Round != good.Round || len(got.Candidates) != len(good.Candidates) {
		t.Error("failed installs disturbed the open round")
	}
	if err := eng.SetRoundState(good); err != nil {
		t.Errorf("reinstalling the engine's own broadcast: %v", err)
	}
}

// TestRoundStateCodec round-trips the broadcast encoding and rejects
// truncated and trailing-garbage forms.
func TestRoundStateCodec(t *testing.T) {
	eng, err := NewEngine(testParams(ModeFedTrie))
	if err != nil {
		t.Fatal(err)
	}
	rs := eng.RoundState()
	rs.GroupReports = 42
	blob := proto.EncodeRoundState(rs)
	back, err := proto.DecodeRoundState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Round != rs.Round || back.Rounds != rs.Rounds || back.PrefixBits != rs.PrefixBits ||
		back.Done != rs.Done || back.GroupReports != rs.GroupReports || len(back.Candidates) != len(rs.Candidates) {
		t.Fatalf("round state did not round-trip: %+v vs %+v", back, rs)
	}
	for i := range rs.Candidates {
		if !bytes.Equal(back.Candidates[i], rs.Candidates[i]) {
			t.Fatalf("candidate %d did not round-trip", i)
		}
	}
	if _, err := proto.DecodeRoundState(blob[:len(blob)-1]); err == nil {
		t.Error("truncated round state decoded")
	}
	if _, err := proto.DecodeRoundState(append(blob, 0)); err == nil {
		t.Error("round state with trailing garbage decoded")
	}
}

// TestSnapshotRoundTrip checkpoints mid-round and proves the restored
// engine finishes the protocol bit-identically to the uninterrupted one.
func TestSnapshotRoundTrip(t *testing.T) {
	p := testParams(ModePEM)
	mk := func() *Wire {
		w, err := NewWire(p)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	refW, victim := mk(), mk()
	ref := refW.eng
	// Round 0 fully, round 1 half-way into both engines identically.
	feed := func(eng *Engine, r, from, to int) {
		for u := from; u < to; u++ {
			if eng.Group(u) != r {
				continue
			}
			rep, err := eng.Report(plantedItem(u), u, RoundRand(p.Seed, r, u))
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Absorb(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, eng := range []*Engine{ref, victim.eng} {
		feed(eng, 0, 0, p.N)
		if _, err := eng.AdvanceRound(); err != nil {
			t.Fatal(err)
		}
		feed(eng, 1, 0, p.N/2)
	}
	snap, err := victim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restoredW := mk()
	if err := restoredW.Restore(snap); err != nil {
		t.Fatal(err)
	}
	restored := restoredW.eng
	if restored.RoundState().Round != 1 || restored.TotalReports() != victim.TotalReports() {
		t.Fatalf("restore landed at round %d with %d reports, want round 1 with %d",
			restored.RoundState().Round, restored.TotalReports(), victim.TotalReports())
	}
	// Finish both from the same point and compare exactly.
	finish := func(eng *Engine) []proto.Estimate {
		feed(eng, 1, p.N/2, p.N)
		for r := 1; ; r++ {
			rs, err := eng.AdvanceRound()
			if err != nil {
				t.Fatal(err)
			}
			if rs.Done {
				break
			}
			feed(eng, r+1, 0, p.N)
		}
		est, err := eng.Identify()
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	want, got := finish(ref), finish(restored)
	assertSameEstimates(t, got, want)

	// A done snapshot also round-trips.
	snap2, err := refW.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	again := mk()
	if err := again.Restore(snap2); err != nil {
		t.Fatal(err)
	}
	est, err := again.eng.Identify()
	if err != nil {
		t.Fatal(err)
	}
	assertSameEstimates(t, est, want)

	// Corruption and fingerprint mismatches are rejected atomically.
	bad := append([]byte(nil), snap...)
	bad[9] ^= 0xFF // fingerprint byte
	if err := mk().Restore(bad); err == nil {
		t.Error("fingerprint-mismatched snapshot restored")
	}
	if err := mk().Restore(snap[:len(snap)-3]); err == nil {
		t.Error("truncated snapshot restored")
	}
}

// TestMergeEquivalence proves split-ingest-merge is bit-identical to
// sequential ingest: two leaves provisioned with the root's broadcast each
// absorb half a round, the root merges both snapshots, and every round
// transition matches an engine that absorbed everything itself.
func TestMergeEquivalence(t *testing.T) {
	p := testParams(ModeFedTrie)
	mk := func() *Wire {
		w, err := NewWire(p)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	ref, rootW := mk().eng, mk()
	root := rootW.eng
	for r := 0; ; r++ {
		rs := root.RoundState()
		leafA, leafB := mk(), mk()
		if err := leafA.SetRoundState(rs); err != nil {
			t.Fatal(err)
		}
		if err := leafB.SetRoundState(rs); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < p.N; u++ {
			if ref.Group(u) != r {
				continue
			}
			rep, err := ref.Report(plantedItem(u), u, RoundRand(p.Seed, r, u))
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Absorb(rep); err != nil {
				t.Fatal(err)
			}
			leaf := leafA
			if u%2 == 1 {
				leaf = leafB
			}
			if err := leaf.eng.Absorb(rep); err != nil {
				t.Fatal(err)
			}
		}
		for _, leaf := range []*Wire{leafA, leafB} {
			snap, err := leaf.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := rootW.MergeSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
		if root.RoundState().GroupReports != ref.RoundState().GroupReports {
			t.Fatalf("round %d: root merged %d reports, ref absorbed %d",
				r, root.RoundState().GroupReports, ref.RoundState().GroupReports)
		}
		wantRS, err := ref.AdvanceRound()
		if err != nil {
			t.Fatal(err)
		}
		gotRS, err := root.AdvanceRound()
		if err != nil {
			t.Fatal(err)
		}
		if gotRS.Done != wantRS.Done || len(gotRS.Candidates) != len(wantRS.Candidates) {
			t.Fatalf("round %d transition diverged: %d candidates done=%t vs %d done=%t",
				r, len(gotRS.Candidates), gotRS.Done, len(wantRS.Candidates), wantRS.Done)
		}
		if wantRS.Done {
			break
		}
	}
	want, err := ref.Identify()
	if err != nil {
		t.Fatal(err)
	}
	got, err := root.Identify()
	if err != nil {
		t.Fatal(err)
	}
	assertSameEstimates(t, got, want)
}

// TestWireRoundTrip drives the full protocol through the wire adapter —
// encoded reports, batch absorption, the Interactive capability — and
// checks the codec registrations resolve both kinds.
func TestWireRoundTrip(t *testing.T) {
	for _, mode := range []Mode{ModePEM, ModeFedTrie} {
		t.Run(mode.String(), func(t *testing.T) {
			p := testParams(mode)
			device, err := NewWire(p)
			if err != nil {
				t.Fatal(err)
			}
			server, err := NewWire(p)
			if err != nil {
				t.Fatal(err)
			}
			it, ok := proto.AsInteractive(server)
			if !ok {
				t.Fatal("wire adapter does not expose the Interactive capability")
			}
			for r := 0; ; r++ {
				if err := device.SetRoundState(it.RoundState()); err != nil {
					t.Fatal(err)
				}
				var batch []proto.WireReport
				for u := 0; u < p.N; u++ {
					if device.Engine().Group(u) != r {
						continue
					}
					wr, err := device.Report(plantedItem(u), u, RoundRand(p.Seed, r, u))
					if err != nil {
						t.Fatal(err)
					}
					batch = append(batch, wr)
				}
				if err := server.AbsorbBatch(batch); err != nil {
					t.Fatal(err)
				}
				rs, err := it.AdvanceRound()
				if err != nil {
					t.Fatal(err)
				}
				if rs.Done {
					break
				}
			}
			est, err := server.Identify(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(est) < 2 || !bytes.Equal(est[0].Item, []byte{0x12, 0x34}) {
				t.Fatalf("wire discovery failed: %d items, top %x", len(est), firstItem(est))
			}
			if got := server.TotalReports(); got != p.N {
				t.Errorf("TotalReports = %d, want %d (groups partition the population)", got, p.N)
			}
		})
	}
}

// TestWireBatchValidPrefix pins the AbsorbBatch contract: the valid prefix
// before the first structurally invalid report is absorbed, and the decode
// error is returned.
func TestWireBatchValidPrefix(t *testing.T) {
	p := testParams(ModePEM)
	w, err := NewWire(p)
	if err != nil {
		t.Fatal(err)
	}
	var batch []proto.WireReport
	for u := 0; len(batch) < 3; u++ {
		if w.Engine().Group(u) != 0 {
			continue
		}
		wr, err := w.Report(plantedItem(u), u, RoundRand(p.Seed, 0, u))
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, wr)
	}
	bad := append(proto.WireReport(nil), batch[2]...)
	bad[len(bad)-1] = 9 // bit byte outside {0,1}
	if err := w.AbsorbBatch([]proto.WireReport{batch[0], batch[1], bad}); err == nil {
		t.Fatal("batch with a corrupt report absorbed cleanly")
	}
	if got := w.TotalReports(); got != 2 {
		t.Errorf("valid prefix absorbed %d reports, want 2", got)
	}
}

func firstItem(est []proto.Estimate) []byte {
	if len(est) == 0 {
		return nil
	}
	return est[0].Item
}

func assertSameEstimates(t *testing.T, got, want []proto.Estimate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("identified %d items, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Item, want[i].Item) || got[i].Count != want[i].Count {
			t.Fatalf("estimate %d diverged: %x/%v vs %x/%v",
				i, got[i].Item, got[i].Count, want[i].Item, want[i].Count)
		}
	}
}
