package listrec

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"ldphh/internal/dist"
	"ldphh/internal/ecc"
	"ldphh/internal/graph"
)

// Decode recovers all items x whose encodings agree with at least a
// minAgree fraction of the lists (Definition 3.5). lists must have length M;
// within each list the Y values must be distinct (the "unique" condition,
// guaranteed by the PrivateExpanderSketch argmax construction).
//
// seed pins the call's entire randomness: Decode derives a private PCG
// stream from it (dist.SubStream) that drives the spectral refinement path
// of the cluster finder, so the same (lists, seed) pair always returns the
// same items in the same order and concurrent Decode calls share no mutable
// state. Callers decoding many bucket lists in parallel label each call
// with its own seed (e.g. dist.Mix(rootSeed, bucket)); decoding is fully
// deterministic even without that care whenever clusters arrive as isolated
// components, which is the whp case.
//
// Decoding iterates a peeling loop (part of DESIGN.md substitution S2): when
// short fingerprints glue several items' expander copies into one component,
// the pass recovers at least the cleanest items; their symbols are then
// removed from the lists and the graph rebuilt, which isolates the remaining
// copies. The loop runs to a fixpoint.
func (c *Code) Decode(lists [][]Symbol, seed uint64) ([][]byte, error) {
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

	rng := dist.SubStream(seed, 0xDEC0DE)
	remaining := make([][]Symbol, len(lists))
	for m := range lists {
		remaining[m] = append([]Symbol(nil), lists[m]...)
	}
	var out [][]byte
	seenItems := make(map[string]bool)
	for round := 0; ; round++ {
		items := c.decodeOnce(remaining, lists, rng)
		fresh := 0
		for _, it := range items {
			if !seenItems[string(it)] {
				seenItems[string(it)] = true
				out = append(out, it)
				fresh++
				// Peel: remove this item's exact symbols from the working
				// lists so remaining clusters decouple next round.
				enc, err := c.Encode(it)
				if err != nil {
					return nil, err
				}
				for m, s := range enc {
					for i, have := range remaining[m] {
						if have == s {
							remaining[m] = append(remaining[m][:i:i], remaining[m][i+1:]...)
							break
						}
					}
				}
			}
		}
		if fresh == 0 {
			return out, nil
		}
	}
}

// decodeOnce runs one graph-cluster-decode pass over work, verifying
// candidates against the original (unpeeled) lists.
func (c *Code) decodeOnce(work, original [][]Symbol, rng *rand.Rand) [][]byte {
	lists := work

	// Vertices: one per present (m, y) pair, in compact order.
	var verts []vert
	index := make(map[[2]int]int) // (m, y) -> vertex id
	for m, list := range lists {
		for _, s := range list {
			chunk, fps := c.unpack(s.Z)
			index[[2]int{m, s.Y}] = len(verts)
			verts = append(verts, vert{m: m, sym: s, chunk: chunk, fps: fps})
		}
	}
	if len(verts) == 0 {
		return nil
	}

	// Mutual-edge construction: for each expander edge (m,k)<->(m',k'), join
	// vertices u=(m,y), v=(m',y') iff u's slot-k fingerprint matches φ(y')
	// and v's slot-k' fingerprint matches φ(y).
	g := graph.New(len(verts))
	for m := 0; m < c.p.M; m++ {
		for k, m2 := range c.exp.Neighbors(m) {
			k2 := c.slotOf[m][k]
			if m2 < m || (m2 == m && k2 <= k) {
				continue // each undirected edge once
			}
			for _, s := range lists[m] {
				u := index[[2]int{m, s.Y}]
				for _, s2 := range lists[m2] {
					v := index[[2]int{m2, s2.Y}]
					if verts[u].fps[k] == c.fingerprint(m, k, s2.Y) &&
						verts[v].fps[k2] == c.fingerprint(m2, k2, s.Y) {
						g.AddEdge(u, v)
					}
				}
			}
		}
	}

	clusters := g.FindClusters(graph.ClusterOptions{
		MaxSize: c.p.M + c.p.M/2,
		Rand:    rng,
	})

	var out [][]byte
	seenItems := make(map[string]bool)
	emit := func(item []byte) {
		if c.verify(item, original) && !seenItems[string(item)] {
			seenItems[string(item)] = true
			out = append(out, item)
		}
	}
	for _, cl := range clusters {
		cl = g.PruneLowDegree(cl, c.dEff/2, 1)
		if len(cl) < c.p.M/2 {
			continue
		}
		if item, ok := c.decodeCluster(verts, cl, g); ok {
			emit(item)
		}
	}
	// Seeded-growth fallback: global cuts can slice a dense multi-item
	// blob along coordinates rather than items (every piece then fails to
	// decode). Growing an assignment outward from each vertex along
	// mutually-verified edges anchors item identity locally and is immune
	// to that failure mode; verification keeps false candidates out.
	for s := range verts {
		if item, ok := c.seededGrow(verts, g, s); ok {
			emit(item)
		}
	}
	return out
}

// seededGrow attempts to reconstruct the item whose encoding contains the
// seed vertex: walk the expander's coordinates in BFS order from the seed's
// coordinate, greedily choosing at each coordinate the vertex with the most
// verified edges into the already-chosen set (ties and unconnected
// coordinates become erasures), then RS-decode.
func (c *Code) seededGrow(verts []vert, g *graph.Graph, seed int) ([]byte, bool) {
	chosen := make([]int, c.p.M)
	for m := range chosen {
		chosen[m] = -1
	}
	chosen[verts[seed].m] = seed
	inChosen := make(map[int]bool, c.p.M)
	inChosen[seed] = true

	// BFS order over the expander from the seed coordinate.
	order := make([]int, 0, c.p.M)
	seen := make([]bool, c.p.M)
	queue := []int{verts[seed].m}
	seen[verts[seed].m] = true
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

	// vertex ids grouped by coordinate
	byCoord := make([][]int, c.p.M)
	for u := range verts {
		byCoord[verts[u].m] = append(byCoord[verts[u].m], u)
	}

	for _, m := range order {
		if chosen[m] != -1 {
			continue
		}
		best, bestScore, tie := -1, 0, false
		for _, u := range byCoord[m] {
			score := 0
			for _, w := range g.Neighbors(u) {
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

	received := make([]byte, c.p.M*c.p.ChunkBytes)
	var erasures []int
	assigned := 0
	for m := 0; m < c.p.M; m++ {
		if chosen[m] == -1 {
			for b := 0; b < c.p.ChunkBytes; b++ {
				erasures = append(erasures, m*c.p.ChunkBytes+b)
			}
			continue
		}
		assigned++
		copy(received[m*c.p.ChunkBytes:], verts[chosen[m]].chunk)
	}
	if assigned < c.p.M/2 {
		return nil, false
	}
	item, err := c.rs.Decode(received, erasures)
	if err != nil {
		return nil, false
	}
	return item, true
}

// vert is a materialized (coordinate, hash-value) vertex of the decoding
// graph together with its unpacked payload.
type vert struct {
	m     int
	sym   Symbol
	chunk []byte
	fps   []uint64
}

// decodeCluster assembles a corrupted RS codeword from the cluster's chunks
// (one vertex per coordinate; ambiguous or missing coordinates become
// erasures) and decodes it.
func (c *Code) decodeCluster(verts []vert, cl []int, g *graph.Graph) ([]byte, bool) {
	inCl := make(map[int]bool, len(cl))
	for _, u := range cl {
		inCl[u] = true
	}
	// Pick, per coordinate, the cluster vertex with the most intra-cluster
	// edges; ties and absences become erasures.
	best := make([]int, c.p.M)
	bestDeg := make([]int, c.p.M)
	ambiguous := make([]bool, c.p.M)
	for m := range best {
		best[m] = -1
	}
	for _, u := range cl {
		m := verts[u].m
		deg := 0
		for _, w := range g.Neighbors(u) {
			if inCl[w] {
				deg++
			}
		}
		switch {
		case best[m] == -1 || deg > bestDeg[m]:
			best[m], bestDeg[m], ambiguous[m] = u, deg, false
		case deg == bestDeg[m]:
			ambiguous[m] = true
		}
	}
	received := make([]byte, c.p.M*c.p.ChunkBytes)
	var erasures []int
	for m := 0; m < c.p.M; m++ {
		if best[m] == -1 || ambiguous[m] {
			for b := 0; b < c.p.ChunkBytes; b++ {
				erasures = append(erasures, m*c.p.ChunkBytes+b)
			}
			continue
		}
		copy(received[m*c.p.ChunkBytes:], verts[best[m]].chunk)
	}
	item, err := c.rs.Decode(received, erasures)
	if err != nil {
		if errors.Is(err, ecc.ErrTooManyCorruptions) {
			return nil, false
		}
		return nil, false
	}
	return item, true
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
		for _, have := range lists[m] {
			if have == s {
				agree++
				break
			}
		}
	}
	return float64(agree) >= minAgree*float64(c.p.M)
}
