package order_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/perm"
	"repro/internal/scratch"
)

// lazySloanRefine is core.SloanRefine with its Sloan numbering swapped for
// the frozen lazy-heap one; the rank scaling is copied unchanged.
func lazySloanRefine(g *graph.Graph, spectral perm.Perm) (perm.Perm, bool) {
	n := g.N()
	inv := spectral.Inverse()
	start := int(spectral[0])
	ecc := graph.Eccentricity(g, start)
	if ecc < 1 {
		ecc = 1
	}
	global := make([]int32, n)
	scale := float64(ecc) / float64(n-1)
	for v := 0; v < n; v++ {
		global[v] = int32(float64(int32(n-1)-inv[v]) * scale)
	}
	o, ok := order.LazySloanOrderWithGlobal(g, start, global, order.DefaultSloanWeights())
	if !ok {
		return nil, false
	}
	return perm.Perm(o), true
}

// checkIdentical runs every ordering the indexed queue serves, and its
// frozen lazy-heap twin, on g and fails on the first permutation that
// differs by a single byte.
func checkIdentical(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	ws := scratch.New()
	same := func(alg string, got, want perm.Perm) {
		t.Helper()
		if !got.Equal(want) {
			t.Errorf("%s: %s differs from the lazy-heap ordering (n=%d, m=%d)", name, alg, g.N(), g.M())
		}
	}
	same("SloanWS", order.SloanWS(ws, g), order.LazySloanWS(ws, g))
	same("GK", order.GK(g), order.LazyGK(g))
	same("King", order.King(g), order.LazyKing(g))

	// The *From* entry points and the spectral refinement take a connected
	// graph: use the largest component.
	comp := g
	if !graph.IsConnected(g) {
		comps := graph.Components(g)
		if len(comps) == 0 {
			return
		}
		comp, _ = g.Subgraph(comps[0])
	}
	if comp.N() == 0 {
		return
	}
	u, v, lsU, lsV := graph.PseudoDiameter(comp, 0)
	same("SloanFromDiameterWS", order.SloanFromDiameterWS(ws, comp, u, lsV.LevelOf),
		order.LazySloanFromDiameterWS(ws, comp, u, lsV.LevelOf))
	same("GKFromDiameter", order.GKFromDiameter(comp, u, v, lsU, lsV),
		order.LazyGKFromDiameter(comp, u, v, lsU, lsV))
	root, _ := graph.PseudoPeripheral(comp, 0)
	same("KingFromRoot", order.KingFromRoot(comp, root), order.LazyKingFromRoot(comp, root))
	if comp.N() < 2 {
		return
	}
	// Any permutation serves as the global priority; RCM is a good one,
	// a random one is a tie-free adversarial one.
	for _, spectral := range []perm.Perm{order.RCM(comp), perm.Random(comp.N(), int64(comp.N()))} {
		got, okGot := core.SloanRefine(comp, spectral)
		want, okWant := lazySloanRefine(comp, spectral)
		if okGot != okWant {
			t.Fatalf("%s: core.SloanRefine ok=%v, lazy ok=%v", name, okGot, okWant)
		}
		same("core.SloanRefine", got, want)
	}
}

// TestIndexedQueueMatchesLazyHeapOnPaperProblems pins Sloan, King, GK and
// the SPECTRAL+SLOAN refinement byte for byte to the lazy-deletion heaps
// they replaced, on the paper's problems at two scales.
func TestIndexedQueueMatchesLazyHeapOnPaperProblems(t *testing.T) {
	for _, scale := range []float64{0.25, 0.5} {
		for _, spec := range gen.Specs() {
			spec, scale := spec, scale
			t.Run(fmt.Sprintf("%s@%v", spec.Name, scale), func(t *testing.T) {
				t.Parallel()
				checkIdentical(t, spec.Name, spec.Generate(scale, 1993).G)
			})
		}
	}
}

// TestIndexedQueueMatchesLazyHeapOnGenSuite covers the generated suite at
// the small scale the pipeline tests use, with a different seed.
func TestIndexedQueueMatchesLazyHeapOnGenSuite(t *testing.T) {
	for _, spec := range gen.Specs() {
		checkIdentical(t, spec.Name, spec.Generate(0.05, 11).G)
	}
}

// TestIndexedQueueMatchesLazyHeapOnTies covers graphs where keys tie
// constantly, so the degree and label tie-breaks decide nearly every pop:
// sparse random trees and near-trees, grids, stars, complete graphs and
// disconnected unions of them.
func TestIndexedQueueMatchesLazyHeapOnTies(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"star":        graph.Star(40),
		"complete":    graph.Complete(24),
		"grid":        graph.Grid(23, 17),
		"long grid":   graph.Grid(60, 3),
		"path":        graph.Path(50),
		"cycle":       graph.Cycle(31),
		"singleton":   graph.NewBuilder(1).Build(),
		"edgeless":    graph.FromEdges(6, nil),
		"two stars":   graph.FromEdges(9, [][2]int{{0, 1}, {0, 2}, {0, 3}, {4, 5}, {4, 6}, {4, 7}, {4, 8}}),
		"grid+clique": union(graph.Grid(9, 9), graph.Complete(7), graph.Star(12)),
	}
	for seed := int64(0); seed < 120; seed++ {
		n, extra := 20+int(seed%7)*30, int(seed%5)*(20+int(seed%7)*30)/4
		graphs[fmt.Sprintf("random n=%d extra=%d seed=%d", n, extra, seed)] = graph.Random(n, extra, seed)
	}
	for name, g := range graphs {
		checkIdentical(t, name, g)
	}
}

// union returns the disjoint union of gs, labelled consecutively.
func union(gs ...*graph.Graph) *graph.Graph {
	n := 0
	for _, g := range gs {
		n += g.N()
	}
	b := graph.NewBuilder(n)
	off := 0
	for _, g := range gs {
		for _, e := range g.Edges() {
			b.AddEdge(off+e[0], off+e[1])
		}
		off += g.N()
	}
	return b.Build()
}
