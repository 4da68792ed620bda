package listrec

import (
	"cmp"
	"fmt"
	"slices"
)

// exactBudget bounds the symbols the exact pass visits in one coordinate
// set, so a bucket flooded with linked junk costs a constant number of
// erasure decodes instead of the product of its list lengths.
const exactBudget = 4096

// Decode recovers all items x whose encodings agree with at least a
// minAgree fraction of the lists (Definition 3.5). lists must have length M;
// within each list the Y values must be distinct (the "unique" condition,
// guaranteed by the PrivateExpanderSketch argmax construction).
//
// Decode draws no randomness: it is a pure function of its lists, so the
// same lists always return the same items in the same order, and
// concurrent calls share no mutable state.
//
// Decoding is a peeling loop (DESIGN.md substitution S2). Each round grows
// an assignment from every listed symbol along mutually linked expander
// edges and erasure-decodes it; a round whose growth finds nothing new runs
// the bounded exact pass instead. Every candidate is verified against the
// original lists, and the exact symbols of each new item are then removed
// from the working lists, which untangles the copies that short
// fingerprints had glued to it. The loop stops at the first round that
// finds nothing new.
func (c *Code) Decode(lists [][]Symbol) ([][]byte, error) {
	if len(lists) != c.p.M {
		return nil, fmt.Errorf("listrec: got %d lists, want %d", len(lists), c.p.M)
	}
	for m, list := range lists {
		seen := make(map[int]bool, len(list))
		for _, s := range list {
			if s.Y < 0 || s.Y >= c.p.Y {
				return nil, fmt.Errorf("listrec: list %d has out-of-range Y=%d", m, s.Y)
			}
			if seen[s.Y] {
				return nil, fmt.Errorf("listrec: list %d violates the unique-Y condition at Y=%d", m, s.Y)
			}
			seen[s.Y] = true
		}
	}

	remaining := make([][]Symbol, len(lists))
	for m := range lists {
		remaining[m] = append([]Symbol(nil), lists[m]...)
	}
	var out [][]byte
	seenItems := make(map[string]bool)
	for {
		g := c.layer(remaining)
		var fresh [][]byte
		emit := func(item []byte) {
			if !seenItems[string(item)] && c.verify(item, lists) {
				seenItems[string(item)] = true
				fresh = append(fresh, item)
			}
		}
		for s := range g.verts {
			if item, ok := c.seededGrow(g, s); ok {
				emit(item)
			}
		}
		if len(fresh) == 0 {
			c.exact(g, emit)
		}
		if len(fresh) == 0 {
			return out, nil
		}
		out = append(out, fresh...)
		// Peel: remove the new items' exact symbols from the working lists.
		for _, it := range fresh {
			enc, err := c.Encode(it)
			if err != nil {
				return nil, err
			}
			for m, s := range enc {
				if i := slices.Index(remaining[m], s); i >= 0 {
					remaining[m] = slices.Delete(remaining[m], i, i+1)
				}
			}
		}
	}
}

// vert is a materialized (coordinate, hash-value) vertex of the decoding
// graph together with its unpacked payload.
type vert struct {
	m, y  int
	chunk []byte
	fps   []uint64
}

// layered is one peeling round's decoding graph on [M]x[Y]: a vertex per
// listed symbol, and an edge per expander edge on which two symbols are
// linked (parallel expander edges give parallel graph edges).
type layered struct {
	verts   []vert
	byCoord [][]int // vertex ids per coordinate, in list order
	adj     [][]int
}

func (c *Code) layer(lists [][]Symbol) *layered {
	g := &layered{byCoord: make([][]int, c.p.M)}
	for m, list := range lists {
		for _, s := range list {
			chunk, fps := c.unpack(s.Z)
			g.byCoord[m] = append(g.byCoord[m], len(g.verts))
			g.verts = append(g.verts, vert{m: m, y: s.Y, chunk: chunk, fps: fps})
		}
	}
	g.adj = make([][]int, len(g.verts))
	for m := 0; m < c.p.M; m++ {
		for k, m2 := range c.exp.Neighbors(m) {
			if m2 < m || (m2 == m && c.slotOf[m][k] <= k) {
				continue // each undirected edge once
			}
			for _, u := range g.byCoord[m] {
				for _, v := range g.byCoord[m2] {
					if c.linked(&g.verts[u], k, &g.verts[v]) {
						g.adj[u] = append(g.adj[u], v)
						g.adj[v] = append(g.adj[v], u)
					}
				}
			}
		}
	}
	return g
}

// linked is the mutual-fingerprint test on the expander edge at slot k of
// u's coordinate, whose far end v lies at: u's slot-k fingerprint matches
// φ(v.Y) and v's paired-slot fingerprint matches φ(u.Y).
func (c *Code) linked(u *vert, k int, v *vert) bool {
	k2 := c.slotOf[u.m][k]
	return u.fps[k] == c.fingerprint(u.m, k, v.y) &&
		v.fps[k2] == c.fingerprint(v.m, k2, u.y)
}

// seededGrow attempts to reconstruct the item whose encoding contains the
// seed vertex: walk the expander's coordinates in BFS order from the seed's
// coordinate, greedily choosing at each coordinate the vertex with the most
// linked edges into the already-chosen set (ties and unconnected
// coordinates become erasures), then RS-decode.
func (c *Code) seededGrow(g *layered, seed int) ([]byte, bool) {
	chosen := make([]int, c.p.M)
	for m := range chosen {
		chosen[m] = -1
	}
	chosen[g.verts[seed].m] = seed
	inChosen := make([]bool, len(g.verts))
	inChosen[seed] = true

	// BFS order over the expander from the seed coordinate.
	order := make([]int, 0, c.p.M)
	seen := make([]bool, c.p.M)
	queue := []int{g.verts[seed].m}
	seen[g.verts[seed].m] = true
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		order = append(order, m)
		for _, m2 := range c.exp.Neighbors(m) {
			if !seen[m2] {
				seen[m2] = true
				queue = append(queue, m2)
			}
		}
	}

	for _, m := range order {
		if chosen[m] != -1 {
			continue
		}
		best, bestScore, tie := -1, 0, false
		for _, u := range g.byCoord[m] {
			score := 0
			for _, w := range g.adj[u] {
				if inChosen[w] {
					score++
				}
			}
			switch {
			case score > bestScore:
				best, bestScore, tie = u, score, false
			case score == bestScore && score > 0:
				tie = true
			}
		}
		if best >= 0 && bestScore > 0 && !tie {
			chosen[m] = best
			inChosen[best] = true
		}
	}
	return c.interpolate(g.verts, chosen)
}

// exact is the bounded exact pass. It orders the coordinates by working
// list length (ties by index), cuts that order into four quarters, and for
// each of the six unions of two quarters walks every choice of one listed
// symbol per coordinate that is linked on each expander edge inside the
// set, interpolating each complete choice with every other coordinate
// erased. Any two coordinates lie outside one of the six sets, so an item
// whose exact symbols sit in all but two working lists is found unless its
// set spends exactBudget visited symbols first; a flooded set is abandoned
// there, leaving that bucket to growth alone.
func (c *Code) exact(g *layered, emit func([]byte)) {
	order := make([]int, c.p.M)
	for m := range order {
		order[m] = m
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(len(g.byCoord[a]), len(g.byCoord[b]))
	})
	quarter := func(q int) []int { return order[q*c.p.M/4 : (q+1)*c.p.M/4] }
	chosen := make([]int, c.p.M)
	for m := range chosen {
		chosen[m] = -1
	}
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			budget := exactBudget
			c.walk(g, slices.Concat(quarter(a), quarter(b)), chosen, &budget, emit)
		}
	}
}

// walk extends chosen over the coordinates of set, in order, with every
// listed symbol linked to the symbols already chosen at neighbouring
// coordinates, and emits each complete choice's interpolation that
// decodes. It returns false once budget visited symbols are spent; chosen
// is restored on return.
func (c *Code) walk(g *layered, set, chosen []int, budget *int, emit func([]byte)) bool {
	if len(set) == 0 {
		if item, ok := c.interpolate(g.verts, chosen); ok {
			emit(item)
		}
		return true
	}
	m := set[0]
	for _, u := range g.byCoord[m] {
		if *budget == 0 {
			return false
		}
		*budget--
		fits := true
		for k, m2 := range c.exp.Neighbors(m) {
			if v := chosen[m2]; v != -1 && !c.linked(&g.verts[u], k, &g.verts[v]) {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		chosen[m] = u
		ok := c.walk(g, set[1:], chosen, budget, emit)
		chosen[m] = -1
		if !ok {
			return false
		}
	}
	return true
}

// interpolate RS-decodes the codeword whose chunks are those of the chosen
// vertices (chosen[m] == -1 erases coordinate m). It fails when fewer than
// half the coordinates are chosen or the decode fails.
func (c *Code) interpolate(verts []vert, chosen []int) ([]byte, bool) {
	received := make([]byte, c.p.M*c.p.ChunkBytes)
	var erasures []int
	assigned := 0
	for m, u := range chosen {
		if u == -1 {
			for b := 0; b < c.p.ChunkBytes; b++ {
				erasures = append(erasures, m*c.p.ChunkBytes+b)
			}
			continue
		}
		assigned++
		copy(received[m*c.p.ChunkBytes:], verts[u].chunk)
	}
	if assigned < c.p.M/2 {
		return nil, false
	}
	item, err := c.rs.Decode(received, erasures)
	return item, err == nil
}

// verify re-encodes item and counts coordinates whose exact symbol appears
// in the corresponding list; accepts iff the agreement reaches minAgree·M.
func (c *Code) verify(item []byte, lists [][]Symbol) bool {
	enc, err := c.Encode(item)
	if err != nil {
		return false
	}
	agree := 0
	for m, s := range enc {
		if slices.Contains(lists[m], s) {
			agree++
		}
	}
	return float64(agree) >= minAgree*float64(c.p.M)
}
