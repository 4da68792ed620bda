package listrec

import (
	"bytes"
	"math/rand/v2"
	"sort"
	"testing"
)

func testParams() Params {
	return Params{
		ItemBytes: 8,
		M:         16,
		Y:         64,
		F:         8,
		D:         6,
	}
}

func mustCode(t *testing.T, p Params, seed uint64) *Code {
	t.Helper()
	c, err := New(p, rand.New(rand.NewPCG(seed, seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randItem(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.UintN(256))
	}
	return b
}

// buildLists scatters the encodings of items into M lists, obeying the
// unique-Y condition (first writer wins on a Y collision, mimicking the
// argmax behaviour of the protocol).
func buildLists(c *Code, items [][]byte) [][]Symbol {
	lists := make([][]Symbol, c.M())
	used := make([]map[int]bool, c.M())
	for m := range used {
		used[m] = make(map[int]bool)
	}
	for _, it := range items {
		enc, err := c.Encode(it)
		if err != nil {
			panic(err)
		}
		for m, s := range enc {
			if !used[m][s.Y] {
				used[m][s.Y] = true
				lists[m] = append(lists[m], s)
			}
		}
	}
	return lists
}

func containsItem(items [][]byte, want []byte) bool {
	for _, it := range items {
		if bytes.Equal(it, want) {
			return true
		}
	}
	return false
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{ItemBytes: 0, M: 16, Y: 64, F: 8, D: 6},
		{ItemBytes: 8, M: 1, Y: 64, F: 8, D: 6},
		{ItemBytes: 16, M: 16, Y: 64, F: 8, D: 6},                  // rate >= 1
		{ItemBytes: 8, M: 16, Y: 63, F: 8, D: 6},                   // Y not pow2
		{ItemBytes: 8, M: 16, Y: 64, F: 128, D: 6},                 // F > Y
		{ItemBytes: 8, M: 16, Y: 64, F: 8, D: 5},                   // odd D
		{ItemBytes: 128, M: 200, ChunkBytes: 2, Y: 64, F: 8, D: 6}, // cw > 255
	}
	rng := rand.New(rand.NewPCG(1, 1))
	for i, p := range bad {
		if _, err := New(p, rng); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestZBitsPacking(t *testing.T) {
	c := mustCode(t, testParams(), 10)
	if got, want := c.ZBits(), 8+6*3; got != want {
		t.Fatalf("ZBits = %d, want %d", got, want)
	}
	// Pack/unpack roundtrip via an encode.
	rng := rand.New(rand.NewPCG(2, 2))
	item := randItem(rng, 8)
	enc, err := c.Encode(item)
	if err != nil {
		t.Fatal(err)
	}
	for m, s := range enc {
		if s.Z >= 1<<uint(c.ZBits()) {
			t.Fatalf("coordinate %d payload exceeds ZBits: %d", m, s.Z)
		}
		chunk, fps := c.unpack(s.Z)
		if got := c.PackZ(chunk, fps); got != s.Z {
			t.Fatalf("pack/unpack mismatch at %d: %d != %d", m, got, s.Z)
		}
	}
}

func TestEncodeDeterministicAndHashConsistent(t *testing.T) {
	c := mustCode(t, testParams(), 11)
	rng := rand.New(rand.NewPCG(3, 3))
	item := randItem(rng, 8)
	e1, _ := c.Encode(item)
	e2, _ := c.Encode(item)
	for m := range e1 {
		if e1[m] != e2[m] {
			t.Fatal("Encode not deterministic")
		}
		if e1[m].Y != c.Hash(m, item) {
			t.Fatalf("Enc(x)_%d.Y != h_%d(x)", m, m)
		}
	}
	if _, err := c.Encode(make([]byte, 7)); err == nil {
		t.Error("wrong-length item accepted")
	}
}

func TestDecodeSingleItemClean(t *testing.T) {
	c := mustCode(t, testParams(), 12)
	rng := rand.New(rand.NewPCG(4, 4))
	item := randItem(rng, 8)
	lists := buildLists(c, [][]byte{item})
	got, err := c.Decode(lists, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], item) {
		t.Fatalf("Decode = %v, want [%x]", got, item)
	}
}

func TestDecodeManyItems(t *testing.T) {
	c := mustCode(t, testParams(), 13)
	rng := rand.New(rand.NewPCG(5, 5))
	var items [][]byte
	for i := 0; i < 12; i++ {
		items = append(items, randItem(rng, 8))
	}
	lists := buildLists(c, items)
	got, err := c.Decode(lists, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if !containsItem(got, it) {
			t.Errorf("item %x not recovered (got %d items)", it, len(got))
		}
	}
	if len(got) > 3*len(items) {
		t.Errorf("output list blew up: %d items for %d planted", len(got), len(items))
	}
}

func TestDecodeWithDroppedCoordinates(t *testing.T) {
	// Definition 3.5: items agreeing with (1-α)M lists must be recovered.
	// Drop up to alpha*M coordinates of the planted item.
	c := mustCode(t, testParams(), 14)
	rng := rand.New(rand.NewPCG(6, 6))
	item := randItem(rng, 8)
	for _, drop := range []int{1, 2, 4} {
		lists := buildLists(c, [][]byte{item})
		perm := rng.Perm(c.M())
		for _, m := range perm[:drop] {
			lists[m] = nil
		}
		got, err := c.Decode(lists, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !containsItem(got, item) {
			t.Errorf("item lost with %d dropped coordinates", drop)
		}
	}
}

func TestDecodeWithCorruptedCoordinates(t *testing.T) {
	// Replace the payloads of a few coordinates with junk (wrong chunk and
	// wrong fingerprints): mutual-edge filtering plus RS correction must
	// still recover the item.
	c := mustCode(t, testParams(), 15)
	rng := rand.New(rand.NewPCG(7, 7))
	item := randItem(rng, 8)
	for _, corrupt := range []int{1, 2, 3} {
		lists := buildLists(c, [][]byte{item})
		perm := rng.Perm(c.M())
		for _, m := range perm[:corrupt] {
			z := lists[m][0].Z ^ 0x3f5 // flips chunk and fingerprint bits
			lists[m][0] = Symbol{Y: lists[m][0].Y, Z: z & (1<<uint(c.ZBits()) - 1)}
		}
		got, err := c.Decode(lists, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !containsItem(got, item) {
			t.Errorf("item lost with %d corrupted coordinates", corrupt)
		}
	}
}

func TestDecodeWithNoiseSymbols(t *testing.T) {
	// Junk symbols with random payloads must neither block recovery nor
	// produce verified phantom items.
	c := mustCode(t, testParams(), 16)
	rng := rand.New(rand.NewPCG(8, 8))
	var items [][]byte
	for i := 0; i < 6; i++ {
		items = append(items, randItem(rng, 8))
	}
	lists := buildLists(c, items)
	for m := range lists {
		used := make(map[int]bool)
		for _, s := range lists[m] {
			used[s.Y] = true
		}
		for j := 0; j < 8; j++ {
			y := rng.IntN(c.Params().Y)
			if used[y] {
				continue
			}
			used[y] = true
			lists[m] = append(lists[m], Symbol{Y: y, Z: rng.Uint64() & (1<<uint(c.ZBits()) - 1)})
		}
	}
	got, err := c.Decode(lists, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if !containsItem(got, it) {
			t.Errorf("item %x lost under noise", it)
		}
	}
	// Every returned item must verify against the lists, so phantoms are
	// bounded; with 6 planted items allow nothing beyond small constants.
	if len(got) > 12 {
		t.Errorf("too many phantom items: %d", len(got))
	}
}

func TestDecodeRejectsDuplicateY(t *testing.T) {
	c := mustCode(t, testParams(), 17)
	lists := make([][]Symbol, c.M())
	lists[0] = []Symbol{{Y: 3, Z: 1}, {Y: 3, Z: 2}}
	if _, err := c.Decode(lists, 1); err == nil {
		t.Fatal("duplicate Y accepted")
	}
	lists[0] = []Symbol{{Y: c.Params().Y, Z: 1}}
	if _, err := c.Decode(lists, 1); err == nil {
		t.Fatal("out-of-range Y accepted")
	}
	if _, err := c.Decode(make([][]Symbol, 3), 1); err == nil {
		t.Fatal("wrong list count accepted")
	}
}

func TestDecodeEmptyLists(t *testing.T) {
	c := mustCode(t, testParams(), 18)
	got, err := c.Decode(make([][]Symbol, c.M()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d items from empty lists", len(got))
	}
}

func TestPaperExactConstructionFEqualsY(t *testing.T) {
	// F = Y recovers the construction of Theorem 3.6 verbatim (S4).
	// Y must be comfortably above the item count so that the unique-Y
	// first-writer-wins collisions stay below the code's α tolerance
	// (this is exactly the paper's Event E5 requirement on Y).
	p := Params{ItemBytes: 4, M: 12, Y: 64, F: 64, D: 4}
	c := mustCode(t, p, 19)
	rng := rand.New(rand.NewPCG(11, 11))
	var items [][]byte
	for i := 0; i < 5; i++ {
		items = append(items, randItem(rng, 4))
	}
	lists := buildLists(c, items)
	got, err := c.Decode(lists, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if !containsItem(got, it) {
			t.Errorf("item %x not recovered with F=Y", it)
		}
	}
}

func TestTinyMCompleteGraphFallback(t *testing.T) {
	p := Params{ItemBytes: 2, M: 5, Y: 32, F: 8, D: 8} // M <= D+1 → K_5
	c := mustCode(t, p, 20)
	if c.Expander().D() != 4 {
		t.Fatalf("expected complete-graph degree 4, got %d", c.Expander().D())
	}
	rng := rand.New(rand.NewPCG(12, 12))
	item := randItem(rng, 2)
	lists := buildLists(c, [][]byte{item})
	got, err := c.Decode(lists, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !containsItem(got, item) {
		t.Fatal("item not recovered at tiny M")
	}
}

func TestSlotPairingIsInvolution(t *testing.T) {
	c := mustCode(t, testParams(), 21)
	exp := c.Expander()
	for m := 0; m < exp.M(); m++ {
		for k := range exp.Neighbors(m) {
			m2 := exp.Neighbor(m, k)
			k2 := c.slotOf[m][k]
			if k2 < 0 || k2 >= len(exp.Neighbors(m2)) {
				t.Fatalf("slot (%d,%d) pairs out of range: %d", m, k, k2)
			}
			if exp.Neighbor(m2, k2) != m {
				t.Fatalf("slot (%d,%d) pairs to (%d,%d) which points at %d",
					m, k, m2, k2, exp.Neighbor(m2, k2))
			}
			if c.slotOf[m2][k2] != k {
				t.Fatalf("slot pairing not an involution at (%d,%d)", m, k)
			}
		}
	}
}

func TestDecodeManyItemsSortedStable(t *testing.T) {
	// Decoding twice over the same lists with the same seed yields the same
	// item set: Decode derives all its randomness from the seed argument.
	c := mustCode(t, testParams(), 22)
	rng := rand.New(rand.NewPCG(13, 13))
	var items [][]byte
	for i := 0; i < 8; i++ {
		items = append(items, randItem(rng, 8))
	}
	lists := buildLists(c, items)
	a, err := c.Decode(lists, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Decode(lists, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := func(xs [][]byte) []string {
		var ks []string
		for _, x := range xs {
			ks = append(ks, string(x))
		}
		sort.Strings(ks)
		return ks
	}
	ka, kb := key(a), key(b)
	if len(ka) != len(kb) {
		t.Fatalf("non-deterministic decode: %d vs %d items", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatal("non-deterministic decode content")
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	c, err := New(testParams(), rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		b.Fatal(err)
	}
	item := []byte("8byteitm")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(item); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode20Items(b *testing.B) {
	c, err := New(testParams(), rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	var items [][]byte
	for i := 0; i < 20; i++ {
		items = append(items, randItem(rng, 8))
	}
	lists := buildLists(c, items)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(lists, 1); err != nil {
			b.Fatal(err)
		}
	}
}
