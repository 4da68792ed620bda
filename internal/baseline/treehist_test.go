package baseline

import (
	"math"
	"math/rand/v2"
	"testing"

	"ldphh/internal/workload"
)

func TestTreeHistRecoversHeavyHitters(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end protocol run")
	}
	const n = 60000
	// 16-bit domain: tree depth is what TreeHist pays for, so the test uses
	// the width where its floor sits near the planted frequencies.
	dom := workload.Domain{ItemBytes: 2}
	ds, err := workload.Planted(dom, n, []float64{0.30, 0.22}, rand.New(rand.NewPCG(27, 28)))
	if err != nil {
		t.Fatal(err)
	}
	th, err := NewTreeHist(TreeHistParams{Eps: 4, N: n, ItemBytes: 2, Seed: 404})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(29, 30))
	for i, x := range ds.Items {
		rep, err := th.Report(x, i, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	est, err := th.Identify()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		item := dom.Item(uint64(i))
		got, found := findEstimate(est, item)
		if !found {
			t.Errorf("planted item %d not identified by treehist", i)
			continue
		}
		if math.Abs(got-float64(ds.Count(item))) > 5000 {
			t.Errorf("item %d: estimate %.0f, truth %d", i, got, ds.Count(item))
		}
	}
	if len(est) > th.survivorCap {
		t.Errorf("output exceeds cap: %d", len(est))
	}
}

func TestTreeHistPrefixKey(t *testing.T) {
	x := []byte{0b10110001, 0b01000000}
	// 3-bit prefix: 101 -> first byte masked to 10100000.
	k := prefixKey(x, 3)
	if k[0] != 3 || k[1] != 0b10100000 || len(k) != 2 {
		t.Fatalf("prefixKey(3) = %v", k)
	}
	// 8-bit prefix keeps the byte intact.
	k = prefixKey(x, 8)
	if k[0] != 8 || k[1] != 0b10110001 {
		t.Fatalf("prefixKey(8) = %v", k)
	}
	// 9-bit prefix spans two bytes, masking the second.
	k = prefixKey(x, 9)
	if k[0] != 9 || k[1] != 0b10110001 || k[2] != 0 {
		t.Fatalf("prefixKey(9) = %v", k)
	}
	// Two items sharing a prefix produce identical keys at that depth.
	y := []byte{0b10111111, 0xff}
	for bits := 1; bits <= 4; bits++ {
		ka := prefixKey(x, bits)
		kb := prefixKey(y, bits)
		if string(ka) != string(kb) {
			t.Fatalf("shared %d-bit prefix produced different keys", bits)
		}
	}
	// Diverging bit 5 produces different keys from there on.
	if string(prefixKey(x, 5)) == string(prefixKey(y, 5)) {
		t.Fatal("diverging prefixes collide")
	}
}

func TestTreeHistValidation(t *testing.T) {
	if _, err := NewTreeHist(TreeHistParams{Eps: 0, N: 10, ItemBytes: 2}); err == nil {
		t.Error("Eps 0 accepted")
	}
	if _, err := NewTreeHist(TreeHistParams{Eps: 1, N: 0, ItemBytes: 2}); err == nil {
		t.Error("N 0 accepted")
	}
	if _, err := NewTreeHist(TreeHistParams{Eps: 1, N: 10, ItemBytes: 0}); err == nil {
		t.Error("ItemBytes 0 accepted")
	}
	th, err := NewTreeHist(TreeHistParams{Eps: 1, N: 100, ItemBytes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := th.Report([]byte{1}, 0, rng); err == nil {
		t.Error("wrong item width accepted")
	}
	if err := th.Absorb(TreeHistReport{Level: -1}); err == nil {
		t.Error("bad level accepted")
	}
	if err := th.Absorb(TreeHistReport{Level: 999}); err == nil {
		t.Error("bad level accepted")
	}
}

func TestTreeHistLevelBalance(t *testing.T) {
	th, err := NewTreeHist(TreeHistParams{Eps: 1, N: 64000, ItemBytes: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 32)
	for u := 0; u < 64000; u++ {
		counts[th.Level(u)]++
	}
	for l, c := range counts {
		if c < 1000 || c > 4000 {
			t.Errorf("level %d has %d users, expected ~2000", l, c)
		}
	}
}
