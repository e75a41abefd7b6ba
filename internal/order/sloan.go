package order

import (
	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/scratch"
)

// SloanWeights are the priority weights of Sloan's algorithm. The priority
// of a candidate v is  W1·dist(v,end) − W2·(cdeg(v)+1), where cdeg is the
// current degree (unnumbered, not-yet-active neighbors). Sloan's recommended
// defaults are W1=1, W2=2.
type SloanWeights struct {
	W1, W2 int32
}

// DefaultSloanWeights returns Sloan's published defaults.
func DefaultSloanWeights() SloanWeights { return SloanWeights{W1: 1, W2: 2} }

// Sloan computes Sloan's profile-reduction ordering: a greedy numbering
// driven by a priority combining the global distance-to-end-vertex of a
// pseudo-diameter with the local wavefront growth. The paper's §4 closes by
// proposing exactly this kind of "limited use of a local reordering
// strategy" to improve spectral envelopes; the spectral–Sloan hybrid in
// internal/core uses this machinery with spectral positions as the global
// term.
func Sloan(g *graph.Graph) perm.Perm {
	ws := scratch.Get()
	defer scratch.Put(ws)
	return SloanWS(ws, g)
}

// SloanWS is Sloan with caller-provided scratch.
func SloanWS(ws *scratch.Workspace, g *graph.Graph) perm.Perm {
	w := DefaultSloanWeights()
	return overComponentsWS(ws, g, func(ws *scratch.Workspace, sub *graph.Graph, out []int32) []int32 {
		if sub.N() == 0 {
			return out
		}
		if sub.N() == 1 {
			return append(out, 0)
		}
		// Numbering starts at endpoint u of a pseudo-diameter; the global
		// priority term is the BFS distance to the far endpoint v, which is
		// exactly lsV.LevelOf (lsV is rooted at v).
		u, _, _, lsV := graph.PseudoDiameter(sub, 0)
		return sloanComponentInto(ws, sub, u, lsV.LevelOf, w, out)
	})
}

// Vertex states of Sloan's algorithm. Widened to int32 so the status array
// can live in a workspace's int32 arena.
const (
	sloanInactive  int32 = iota // far from the front
	sloanPreactive              // neighbor of an active/numbered vertex
	sloanActive                 // in the front (unnumbered, adjacent to numbered)
	sloanNumbered
)

// sloanComponentInto runs Sloan's numbering on a connected graph, appending
// to out. dist holds the global term (distance to the end vertex in classic
// Sloan; scaled spectral ranks in the hybrid); start is the first vertex
// numbered.
func sloanComponentInto(ws *scratch.Workspace, g *graph.Graph, start int, dist []int32, w SloanWeights, out []int32) []int32 {
	n := g.N()
	m := ws.Mark()
	defer ws.Release(m)
	status := ws.Int32s(n)
	// key[v] is minus the priority W1·dist[v] − W2·(cdeg(v)+1), so the
	// queue's smallest key is the highest priority; cdeg decrements are
	// folded in as −W2 bumps, matching Sloan's published update rules.
	key := ws.Int32s(n)
	for v := 0; v < n; v++ {
		status[v] = sloanInactive
		key[v] = w.W2*int32(g.Degree(v)+1) - w.W1*dist[v]
	}
	// The queue holds exactly the pre-active and active vertices.
	q := newVertexQueue(g, key, ws.Int32s(n), ws.Int32s(n))
	first := len(out)

	bump := func(v int32) {
		key[v] -= w.W2
		if q.queued(v) {
			q.fix(v)
		}
	}

	status[start] = sloanPreactive
	q.push(int32(start))
	// An empty queue before n vertices are numbered means a disconnected
	// remainder; callers order per component.
	for len(out)-first < n && q.len() > 0 {
		v := q.pop()
		if status[v] == sloanPreactive {
			// Numbering a pre-active vertex makes its neighbors pre-active
			// and bumps their priority (their current degree drops).
			for _, u := range g.Neighbors(int(v)) {
				if status[u] == sloanNumbered {
					continue
				}
				bump(u)
				if status[u] == sloanInactive {
					status[u] = sloanPreactive
					q.push(u)
				}
			}
		}
		status[v] = sloanNumbered
		out = append(out, v)
		// Activate v's neighbors: a pre-active neighbor u becomes active;
		// u's neighbors get a priority bump and become at least pre-active.
		for _, u := range g.Neighbors(int(v)) {
			if status[u] != sloanPreactive {
				continue
			}
			status[u] = sloanActive
			bump(u)
			for _, x := range g.Neighbors(int(u)) {
				if status[x] == sloanNumbered || x == v {
					continue
				}
				bump(x)
				if status[x] == sloanInactive {
					status[x] = sloanPreactive
					q.push(x)
				}
			}
		}
	}
	return out
}

// SloanFromDiameterWS is Sloan's ordering of the connected graph g from a
// precomputed pseudo-diameter: start numbering at endpoint u with the BFS
// distances to the far endpoint (lsV.LevelOf for lsV rooted at v) as the
// global priority. distToEnd is read, never modified.
func SloanFromDiameterWS(ws *scratch.Workspace, g *graph.Graph, u int, distToEnd []int32) perm.Perm {
	n := g.N()
	if n == 0 {
		return perm.Perm{}
	}
	if n == 1 {
		return perm.Perm{0}
	}
	w := DefaultSloanWeights()
	return perm.Perm(sloanComponentInto(ws, g, u, distToEnd, w, make([]int32, 0, n)))
}

// SloanOrderWithGlobal exposes the Sloan numbering for a connected graph
// with an arbitrary global priority vector; the spectral–Sloan hybrid in
// internal/core is its consumer.
func SloanOrderWithGlobal(g *graph.Graph, start int, global []int32, w SloanWeights) ([]int32, bool) {
	if !graph.IsConnected(g) {
		return nil, false
	}
	ws := scratch.Get()
	defer scratch.Put(ws)
	return sloanComponentInto(ws, g, start, global, w, make([]int32, 0, g.N())), true
}
