package order

import (
	"repro/internal/graph"
	"repro/internal/perm"
)

// GK computes the Gibbs–King ordering (Gibbs' "hybrid profile reduction"
// Algorithm 509, as implemented by Lewis in TOMS 582): the GPS
// pseudo-diameter and level-structure combination, but with King's
// minimum-frontwidth-growth numbering inside each level, then reversal.
// GK is the envelope champion among the local algorithms in the paper.
func GK(g *graph.Graph) perm.Perm {
	return overComponents(g, gkComponent)
}

func gkComponent(g *graph.Graph) []int32 {
	n := g.N()
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []int32{0}
	}
	c := diameterAndCombine(g)
	return gkNumber(g, c)
}

func gkNumber(g *graph.Graph, c *combined) []int32 {
	order := numberByKing(g, c)
	reverse(order)
	return order
}

// GKFromDiameter is the Gibbs–King ordering of the connected graph g built
// on a precomputed pseudo-diameter (see GPSFromDiameter). The level
// structures are read, never modified.
func GKFromDiameter(g *graph.Graph, u, v int, lsU, lsV *graph.LevelStructure) perm.Perm {
	if g.N() == 1 {
		return perm.Perm{0}
	}
	return perm.Perm(gkNumber(g, combineLevelStructures(g, u, v, lsU, lsV)))
}

// kingState maintains King's greedy criterion incrementally.
//
// grow[w] = number of unnumbered neighbors of w not yet in the front: the
// exact number of vertices that numbering w would add to the front. Placing
// a vertex moves its unnumbered neighbors into the front, which decrements
// grow for *their* neighbors; each edge is touched O(1) times overall, so
// the total maintenance cost is O(m) plus queue traffic.
//
// The queue holds the unnumbered front vertices keyed by grow: all of them
// for King, only those of the level being numbered for GK. Each decrement
// is sifted the moment it happens.
type kingState struct {
	g        *graph.Graph
	numbered []bool
	inFront  []bool
	grow     []int32
	order    []int32
	q        vertexQueue
	levelOf  []int32 // GK's combined level of each vertex; nil for King
	level    int32   // the level GK is numbering, −1 before the first
}

func newKingState(g *graph.Graph, levelOf []int32) *kingState {
	n := g.N()
	ks := &kingState{
		g:        g,
		numbered: make([]bool, n),
		inFront:  make([]bool, n),
		grow:     make([]int32, n),
		order:    make([]int32, 0, n),
		levelOf:  levelOf,
		level:    -1,
	}
	for v := 0; v < n; v++ {
		ks.grow[v] = int32(g.Degree(v))
	}
	ks.q = newVertexQueue(g, ks.grow, make([]int32, n), make([]int32, n))
	return ks
}

// place numbers v, updating the front, the grow counters and the queue.
func (ks *kingState) place(v int32) {
	g := ks.g
	ks.numbered[v] = true
	wasInFront := ks.inFront[v]
	ks.inFront[v] = false
	ks.order = append(ks.order, v)
	if !wasInFront {
		// v skipped the front entirely: it still counted in its neighbors'
		// grow, so remove it now.
		for _, w := range g.Neighbors(int(v)) {
			if !ks.numbered[w] {
				ks.shrink(w)
			}
		}
	}
	for _, u := range g.Neighbors(int(v)) {
		if ks.numbered[u] || ks.inFront[u] {
			continue
		}
		// u enters the front: u no longer counts toward grow of its
		// unnumbered neighbors.
		ks.inFront[u] = true
		if ks.levelOf == nil || ks.levelOf[u] == ks.level {
			ks.q.push(u)
		}
		for _, x := range g.Neighbors(int(u)) {
			if !ks.numbered[x] {
				ks.shrink(x)
			}
		}
	}
}

// shrink decrements grow[w] and, if w is queued, sifts it at once.
func (ks *kingState) shrink(w int32) {
	ks.grow[w]--
	if ks.q.queued(w) {
		ks.q.fix(w)
	}
}

// numberByKing numbers the combined level structure level by level; inside
// a level it repeatedly numbers, among unnumbered level vertices in the
// front (or all remaining level vertices when the front misses the level),
// the one whose numbering introduces the fewest new vertices into the
// front — King's greedy wavefront rule. Ties break by degree then label.
func numberByKing(g *graph.Graph, c *combined) []int32 {
	ks := newKingState(g, c.levelOf)
	ks.place(int32(c.start))

	for l := 0; l < c.k; l++ {
		// The queue is empty here: it only ever holds unnumbered vertices
		// of the level being numbered, and the previous level is done.
		level := c.levels[l]
		ks.level = int32(l)
		remaining := 0
		for _, w := range level {
			if !ks.numbered[w] {
				remaining++
				if ks.inFront[w] {
					ks.q.push(w)
				}
			}
		}
		for ; remaining > 0; remaining-- {
			var pick int32 = -1
			if ks.q.len() > 0 {
				pick = ks.q.pop()
			} else {
				// The front does not reach this level (level-internal
				// disconnection): seed with the queue-order minimum of the
				// remaining level vertices.
				for _, w := range level {
					if !ks.numbered[w] && (pick < 0 || ks.q.less(w, pick)) {
						pick = w
					}
				}
			}
			ks.place(pick)
		}
	}
	return ks.order
}

// King computes King's profile-reduction ordering on the whole graph
// (no level structure): from a pseudo-peripheral root, always number the
// front vertex introducing the fewest new front vertices, then reverse.
// Provided both as a baseline in its own right and as the reference the
// GK within-level variant is tested against.
func King(g *graph.Graph) perm.Perm {
	return overComponents(g, kingComponent)
}

func kingComponent(g *graph.Graph) []int32 {
	if g.N() == 0 {
		return nil
	}
	root, _ := graph.PseudoPeripheral(g, 0)
	return kingRooted(g, root)
}

// KingFromRoot is King's ordering of the connected graph g from a
// precomputed pseudo-peripheral root (see CuthillMcKeeFromRootWS).
func KingFromRoot(g *graph.Graph, root int) perm.Perm {
	return perm.Perm(kingRooted(g, root))
}

func kingRooted(g *graph.Graph, root int) []int32 {
	n := g.N()
	ks := newKingState(g, nil)
	ks.place(int32(root))
	// An empty queue before n vertices are numbered means a disconnected
	// remainder, which overComponents prevents.
	for len(ks.order) < n && ks.q.len() > 0 {
		ks.place(ks.q.pop())
	}
	reverse(ks.order)
	return ks.order
}
