// Package multilevel implements the multilevel Fiedler-vector computation
// of §3 of the paper (Barnard & Simon's scheme): graph contraction via
// maximal independent sets and breadth-first domain growing, interpolation
// of the coarse eigenvector to the finer graph, and Rayleigh Quotient
// Iteration refinement with MINRES inner solves.
//
// The coarsest graph (below CoarsestSize vertices) is solved directly with
// Lanczos; the eigenvector is then carried back up the hierarchy.
//
// The solver is workspace-threaded: FiedlerWS, ContractWS and RQIOnWS draw
// every per-level structure (coarse CSR arrays, domain maps, iterate and
// MINRES work vectors) from a scratch.Workspace, so the hierarchy build and
// the V-cycle refinement run without per-level allocations once the arenas
// are warm. The plain Contract entry point borrows a pooled workspace and
// copies out what it returns.
package multilevel

import (
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/scratch"
)

// Contraction records one coarsening step: the coarse graph, and for every
// fine vertex the coarse vertex (domain) that absorbed it.
type Contraction struct {
	Coarse *graph.Graph
	// DomainOf[v] = index (coarse label) of the domain containing fine v.
	DomainOf []int32
	// Centers[i] = fine vertex chosen as the i-th independent-set vertex.
	Centers []int32
}

// MaximalIndependentSet greedily selects a maximal independent set of g,
// visiting vertices in a seeded random order (matching the paper's
// description: "graph contraction is accomplished by first finding a
// maximal independent set of vertices"). The result is sorted.
func MaximalIndependentSet(g *graph.Graph, seed int64) []int32 {
	ws := scratch.Get()
	defer scratch.Put(ws)
	return misInto(ws, g, seed, make([]int32, 0, g.N()))
}

// misInto appends a sorted maximal independent set of g to mis, using ws
// for the shuffle order and blocked flags. mis must have capacity ≥ g.N().
func misInto(ws *scratch.Workspace, g *graph.Graph, seed int64, mis []int32) []int32 {
	n := g.N()
	m := ws.Mark()
	defer ws.Release(m)
	order := ws.Int32s(n)
	for i := range order {
		order[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })

	blocked := ws.Bools(n)
	for _, v := range order {
		if blocked[v] {
			continue
		}
		mis = append(mis, v)
		blocked[v] = true
		for _, w := range g.Neighbors(int(v)) {
			blocked[w] = true
		}
	}
	// Sorted output keeps downstream structures deterministic given the seed.
	slices.Sort(mis)
	return mis
}

// Contract builds one level of the hierarchy: the independent-set vertices
// become the coarse vertices; domains are grown from them breadth-first
// (multi-source BFS, ties broken by arrival order), and a coarse edge is
// added whenever an edge of the fine graph joins two different domains —
// "adding an edge to the contracted graph when two domains intersect".
//
// The result owns its storage; the hot path inside FiedlerWS uses
// ContractWS instead.
func Contract(g *graph.Graph, seed int64) *Contraction {
	ws := scratch.Get()
	defer scratch.Put(ws)
	c := ContractWS(ws, g, seed)
	nc := c.Coarse.N()
	return &Contraction{
		Coarse: &graph.Graph{
			Xadj: append([]int32(nil), c.Coarse.Xadj...),
			Adj:  append([]int32(nil), c.Coarse.Adj...),
		},
		DomainOf: append([]int32(nil), c.DomainOf...),
		Centers:  append([]int32(nil), c.Centers[:nc]...),
	}
}

// ContractWS is Contract with every output and temporary drawn from ws: the
// returned Contraction (coarse CSR arrays, DomainOf, Centers) is backed by
// ws arenas and is only valid until the enclosing ws.Release or
// scratch.Put. The multilevel driver holds the whole hierarchy this way for
// the duration of one solve.
func ContractWS(ws *scratch.Workspace, g *graph.Graph, seed int64) *Contraction {
	n := g.N()
	// Persistent outputs are checked out before the scratch mark so that
	// releasing the mark frees only the temporaries.
	domain := ws.Int32s(n)
	centers := misInto(ws, g, seed, ws.Int32s(n)[:0])

	m := ws.Mark()
	for i := range domain {
		domain[i] = -1
	}
	queue := ws.Int32s(n)[:0]
	for i, c := range centers {
		domain[c] = int32(i)
		queue = append(queue, c)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Neighbors(int(v)) {
			if domain[w] < 0 {
				domain[w] = domain[v]
				queue = append(queue, w)
			}
		}
	}
	// Vertices never reached sit in components without a center; each MIS
	// covers every component containing at least one vertex (a maximal set
	// touches every vertex or its neighbor), so all vertices are reached on
	// connected inputs. Guard anyway: orphan singleton domains.
	for v := 0; v < n; v++ {
		if domain[v] < 0 {
			domain[v] = int32(len(centers))
			centers = append(centers, int32(v))
		}
	}
	nc := len(centers)
	// Count the coarse arcs (both directions) so the CSR arrays can be
	// checked out at exact size before the counting-sort temporaries.
	nArcs := 0
	for v := 0; v < n; v++ {
		dv := domain[v]
		for _, w := range g.Neighbors(v) {
			if domain[w] != dv {
				nArcs++
			}
		}
	}
	ws.Release(m)

	xadj := ws.Int32s(nc + 1)
	adj := ws.Int32s(nArcs)
	m2 := ws.Mark()
	// Two-pass counting sort over the cross-domain arcs, exactly as
	// graph.Builder.Build: the arc multiset is symmetric, so one prefix-sum
	// table indexes both the by-target buckets and the by-source output.
	deg := ws.Int32s(nc + 1)
	for i := range deg {
		deg[i] = 0
	}
	for v := 0; v < n; v++ {
		dv := domain[v]
		for _, w := range g.Neighbors(v) {
			if domain[w] != dv {
				deg[dv+1]++
			}
		}
	}
	for c := 0; c < nc; c++ {
		deg[c+1] += deg[c]
	}
	off := ws.Int32s(nc)
	copy(off, deg[:nc])
	srcByTarget := ws.Int32s(nArcs)
	for v := 0; v < n; v++ {
		dv := domain[v]
		for _, w := range g.Neighbors(v) {
			if dw := domain[w]; dw != dv {
				srcByTarget[off[dw]] = dv
				off[dw]++
			}
		}
	}
	copy(off, deg[:nc])
	for t := 0; t < nc; t++ {
		for k := deg[t]; k < deg[t+1]; k++ {
			s := srcByTarget[k]
			adj[off[s]] = int32(t)
			off[s]++
		}
	}
	// Dedupe each (sorted) list, compacting in place.
	out := int32(0)
	for c := 0; c < nc; c++ {
		start := out
		prev := int32(-1)
		for k := deg[c]; k < deg[c+1]; k++ {
			if w := adj[k]; w != prev {
				adj[out] = w
				prev = w
				out++
			}
		}
		xadj[c] = start
	}
	xadj[nc] = out
	ws.Release(m2)
	coarse := &graph.Graph{Xadj: xadj[:nc+1], Adj: adj[:out]}
	return &Contraction{Coarse: coarse, DomainOf: domain, Centers: centers}
}

// Interpolate transfers a coarse vector to the fine graph by piecewise-
// constant prolongation: each fine vertex takes the value of its domain.
// The subsequent smoothing and RQI refinement remove the blockiness.
func (c *Contraction) Interpolate(coarse []float64) []float64 {
	fine := make([]float64, len(c.DomainOf))
	c.InterpolateInto(fine, coarse)
	return fine
}

// InterpolateInto is Interpolate into a caller-provided fine vector of
// length len(c.DomainOf).
func (c *Contraction) InterpolateInto(fine, coarse []float64) {
	for v, d := range c.DomainOf {
		fine[v] = coarse[d]
	}
}
