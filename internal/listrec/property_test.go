package listrec

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// recoveryShape is one code shape of the list-recovery sweep, with the
// number of seeds it runs in full and in -short mode (0 skips it there).
type recoveryShape struct {
	name       string
	p          Params
	seeds      int
	shortSeeds int
}

// recoveryLoad is one list load of the sweep: items planted items whose
// exact symbols fill the lists, junk random symbols per list, and, when
// damaged, the first of 3–4 items loses one or two exact symbols, dropped
// or with its payload replaced.
type recoveryLoad struct {
	name    string
	items   int
	junk    int
	damaged bool
	replace bool
}

// TestDefinition35Property is the randomized property sweep of the
// unique-list-recovery guarantee: at each shape, for each load, over many
// code instances, every planted item whose exact symbols sit in all but
// at most two lists must be decoded. The shapes are the original sweep's
// and PES's default codes (ItemBytes 4 → M 8, ItemBytes 8 → M 16); the
// loads range from two clean items to six items with junk, and to one
// damaged item among three or four.
func TestDefinition35Property(t *testing.T) {
	shapes := []recoveryShape{
		{name: "M16-F4-D6", p: Params{ItemBytes: 8, M: 16, Y: 256, F: 4, D: 6}, seeds: 300},
		{name: "pes-M8", p: Params{ItemBytes: 4, M: 8, Y: 512, F: 2, D: 4}, seeds: 1000, shortSeeds: 200},
		{name: "pes-M16", p: Params{ItemBytes: 8, M: 16, Y: 512, F: 2, D: 4}, seeds: 300},
	}
	loads := []recoveryLoad{
		{name: "clean-2+0", items: 2},
		{name: "clean-3+1", items: 3, junk: 1},
		{name: "clean-4+2", items: 4, junk: 2},
		{name: "clean-6+2", items: 6, junk: 2},
		{name: "dropped", items: 3, damaged: true},
		{name: "replaced", items: 3, damaged: true, replace: true},
	}
	for _, sh := range shapes {
		seeds := sh.seeds
		if testing.Short() {
			seeds = sh.shortSeeds
		}
		for li, ld := range loads {
			t.Run(sh.name+"/"+ld.name, func(t *testing.T) {
				if seeds == 0 {
					t.Skip("full-mode shape")
				}
				lost, required := 0, 0
				var first string
				for s := 0; s < seeds; s++ {
					seed := uint64(1000 + s)
					c, err := New(sh.p, rand.New(rand.NewPCG(seed, seed^0xff)))
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewPCG(seed, uint64(77+li)))
					items, lists := recoveryLists(t, c, ld, rng)
					got, err := c.Decode(lists)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					for _, it := range items {
						if exactSymbols(c, it, lists) < c.M()-2 {
							continue
						}
						required++
						if !containsItem(got, it) {
							lost++
							if first == "" {
								first = fmt.Sprintf("seed %d item %x", seed, it)
							}
						}
					}
					// Every output is verified, so beyond the planted items
					// only rare coincidences can pass.
					if len(got) > 2*len(items)+2 {
						t.Errorf("seed %d: %d outputs for %d items", seed, len(got), len(items))
					}
				}
				if lost > 0 {
					t.Errorf("lost %d of %d recoverable items over %d seeds (first: %s)",
						lost, required, seeds, first)
				}
			})
		}
	}
}

// recoveryLists draws the load's distinct items and builds their lists:
// first writer wins on a Y collision, then junk symbols at unused Y, then
// the damage to the first item.
func recoveryLists(t *testing.T, c *Code, ld recoveryLoad, rng *rand.Rand) ([][]byte, [][]Symbol) {
	t.Helper()
	n := ld.items
	if ld.damaged {
		n += rng.IntN(2)
	}
	var items [][]byte
	for len(items) < n {
		if it := randItem(rng, c.p.ItemBytes); !containsItem(items, it) {
			items = append(items, it)
		}
	}
	lists := buildLists(c, items)
	zmask := uint64(1)<<uint(c.ZBits()) - 1
	for m := range lists {
		used := make(map[int]bool)
		for _, s := range lists[m] {
			used[s.Y] = true
		}
		for j := 0; j < ld.junk; {
			if y := rng.IntN(c.p.Y); !used[y] {
				used[y] = true
				lists[m] = append(lists[m], Symbol{Y: y, Z: rng.Uint64() & zmask})
				j++
			}
		}
	}
	if !ld.damaged {
		return items, lists
	}
	enc, err := c.Encode(items[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rng.Perm(c.M())[:1+rng.IntN(2)] {
		for i, s := range lists[m] {
			if s != enc[m] {
				continue
			}
			if ld.replace {
				lists[m][i].Z = (s.Z + 1 + rng.Uint64N(zmask)) & zmask
			} else {
				lists[m] = append(lists[m][:i:i], lists[m][i+1:]...)
			}
			break
		}
	}
	return items, lists
}

// exactSymbols counts the lists that hold item's exact symbol.
func exactSymbols(c *Code, item []byte, lists [][]Symbol) int {
	enc, err := c.Encode(item)
	if err != nil {
		panic(err)
	}
	n := 0
	for m, s := range enc {
		for _, have := range lists[m] {
			if have == s {
				n++
				break
			}
		}
	}
	return n
}

// TestDecodeAllCoordinatesCorrupted is the failure-injection counterpart:
// when more coordinates are corrupted than the code tolerates, Decode must
// return nothing for that item (never a wrong item that passes
// verification).
func TestDecodeAllCoordinatesCorrupted(t *testing.T) {
	p := Params{ItemBytes: 8, M: 16, Y: 256, F: 4, D: 6}
	c, err := New(p, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 8))
	item := randItem(rng, 8)
	lists := buildLists(c, [][]byte{item})
	// Corrupt the payloads of 12 of 16 coordinates — far beyond tolerance.
	perm := rng.Perm(c.M())
	for _, m := range perm[:12] {
		lists[m][0].Z ^= 0x5a5a & (1<<uint(c.ZBits()) - 1)
	}
	got, err := c.Decode(lists)
	if err != nil {
		t.Fatal(err)
	}
	if containsItem(got, item) {
		t.Error("item recovered despite 12/16 corrupted coordinates (miracle or bug)")
	}
	for _, g := range got {
		if !c.verify(g, lists) {
			t.Errorf("unverified phantom output %x", g)
		}
	}
}
