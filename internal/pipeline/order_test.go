package pipeline

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/perm"
)

// disconnectedFixture builds a graph with three nontrivial components (two
// grids and a path) plus a 2-vertex and a 1-vertex component.
func disconnectedFixture() *graph.Graph {
	b := graph.NewBuilder(6*6 + 4*4 + 10 + 2 + 1)
	off := 0
	for _, side := range []int{6, 4} {
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				v := off + r*side + c
				if c+1 < side {
					b.AddEdge(v, v+1)
				}
				if r+1 < side {
					b.AddEdge(v, v+side)
				}
			}
		}
		off += side * side
	}
	for i := 0; i < 9; i++ {
		b.AddEdge(off+i, off+i+1)
	}
	off += 10
	b.AddEdge(off, off+1)
	return b.Build()
}

// orderAlg runs the registered algorithm alg on g through Order, without a
// cache unless one is given.
func orderAlg(t *testing.T, g *graph.Graph, alg string, req OrderRequest, cache *Cache) Result {
	t.Helper()
	ord, ok := Lookup(alg)
	if !ok {
		t.Fatalf("%s not registered", alg)
	}
	res, err := Order(context.Background(), g, alg, ord, req, cache)
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	if len(res.Perm) != g.N() || res.Perm.Check() != nil {
		t.Fatalf("%s: invalid %d-length ordering of a %d-vertex graph", alg, len(res.Perm), g.N())
	}
	return res
}

// Every built-in orders disconnected, singleton and empty input with a
// valid permutation.
func TestOrderDisconnectedValid(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"two-paths":   graph.FromEdges(9, [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}, {7, 8}}),
		"two-comps":   graph.FromEdges(7, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}}),
		"fixture":     disconnectedFixture(),
		"singleton":   graph.NewBuilder(1).Build(),
		"empty":       graph.NewBuilder(0).Build(),
		"edgeless":    graph.NewBuilder(5).Build(),
		"single-edge": graph.FromEdges(2, [][2]int{{0, 1}}),
	}
	w := func(u, v int) float64 { return 1 + 0.1*float64((u+v)%5) }
	for name, g := range graphs {
		for _, alg := range Algorithms() {
			if _, builtin := builtinAlgs[alg]; !builtin {
				continue
			}
			res := orderAlg(t, g, alg, OrderRequest{Seed: 1, Spectral: core.Options{Seed: 1}, Weight: w}, nil)
			if res.Components != len(graph.Components(g)) {
				t.Errorf("%s %s: Components = %d, want %d", name, alg, res.Components, len(graph.Components(g)))
			}
		}
	}
}

// builtinAlgs names the built-in Orderers.
var builtinAlgs = map[string]bool{
	AlgRCM: true, AlgCM: true, AlgGPS: true, AlgGK: true, AlgKing: true, AlgSloan: true,
	AlgSpectral: true, AlgSpectralSloan: true, AlgWeighted: true,
}

// On a disconnected graph the solve record's counters aggregate across
// components while the estimates stay the largest component's.
func TestSolveAggregatesAcrossComponents(t *testing.T) {
	g := disconnectedFixture()
	res := orderAlg(t, g, AlgSpectral, OrderRequest{Seed: 7, Spectral: core.Options{Seed: 7}}, nil)
	if res.Components != 5 {
		t.Fatalf("components = %d, want 5", res.Components)
	}
	// The largest component (6x6 grid) is what the estimates describe.
	if res.Solve.CoarsestN != 36 {
		t.Fatalf("estimates not from the largest component: %+v", *res.Solve)
	}
	if !res.Solve.Converged {
		t.Fatalf("all-healthy run not converged: %+v", *res.Solve)
	}
}

func TestSpectralComponentsOrderedIndependently(t *testing.T) {
	// Two paths: each must appear contiguously and in path order.
	g := graph.FromEdges(12, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, // comp A (6)
		{6, 7}, {7, 8}, {8, 9}, {9, 10}, {10, 11}, // comp B (6)
	})
	res := orderAlg(t, g, AlgSpectral, OrderRequest{}, nil)
	if res.Components != 2 {
		t.Fatalf("components = %d", res.Components)
	}
	s := envelope.Compute(g, res.Perm)
	if s.Bandwidth != 1 {
		t.Fatalf("two-path spectral bandwidth = %d, want 1", s.Bandwidth)
	}
}

// The regression for the duplicated eigensolve: on a disconnected graph
// SPECTRAL+SLOAN must run the eigensolver exactly once per component of
// two or more vertices — the same count as plain SPECTRAL — not twice, and
// its matvec total must match SPECTRAL's exactly.
func TestSpectralSloanEigensolvesOncePerComponent(t *testing.T) {
	g := disconnectedFixture()
	req := OrderRequest{Seed: 7, Spectral: core.Options{Seed: 7}}
	var spectral, hybrid Result
	spectralSolves := countEigensolves(func() { spectral = orderAlg(t, g, AlgSpectral, req, nil) })
	sloanSolves := countEigensolves(func() { hybrid = orderAlg(t, g, AlgSpectralSloan, req, nil) })

	// Three components have n > 1 (grids and the path) plus the edge pair;
	// the singleton is placed by the engine with no solve.
	if spectralSolves != 4 {
		t.Fatalf("Spectral ran %d eigensolves, want 4", spectralSolves)
	}
	if sloanSolves != spectralSolves {
		t.Fatalf("SpectralSloan ran %d eigensolves, Spectral ran %d — the hybrid must not repeat the eigensolve",
			sloanSolves, spectralSolves)
	}
	if hybrid.Solve.MatVecs != spectral.Solve.MatVecs {
		t.Fatalf("SpectralSloan used %d matvecs, Spectral used %d — matvec count must not grow",
			hybrid.Solve.MatVecs, spectral.Solve.MatVecs)
	}
	if spectral.Solve.MatVecs == 0 {
		t.Fatal("MatVecs not instrumented (0 recorded)")
	}
}

// The hybrid must never lose to plain SPECTRAL on envelope size on a
// disconnected graph.
func TestSpectralSloanDisconnectedQuality(t *testing.T) {
	g := disconnectedFixture()
	req := OrderRequest{Seed: 3, Spectral: core.Options{Seed: 3}}
	ps := orderAlg(t, g, AlgSpectral, req, nil).Perm
	ph := orderAlg(t, g, AlgSpectralSloan, req, nil).Perm
	if eh, es := envelope.Esize(g, ph), envelope.Esize(g, ps); eh > es {
		t.Fatalf("hybrid envelope %d worse than spectral %d", eh, es)
	}
}

// Each component's slice of the global ordering must agree with what an
// independent spectral run on the extracted component produces.
func TestSpectralSliceMatchesComponentRun(t *testing.T) {
	g := disconnectedFixture()
	req := OrderRequest{Seed: 5, Spectral: core.Options{Seed: 5}}
	global := orderAlg(t, g, AlgSpectral, req, nil).Perm
	off := 0
	for ci, comp := range graph.Components(g) {
		seg := global[off : off+len(comp)]
		off += len(comp)
		sub, old := g.Subgraph(comp)
		local := orderAlg(t, sub, AlgSpectral, req, nil).Perm
		for k := range local {
			if int(seg[k]) != old[local[k]] {
				t.Fatalf("component %d: global slice and component run disagree at position %d", ci, k)
			}
		}
	}
}

// A cached Order on a disconnected graph memoizes every component's solve:
// the second SPECTRAL and SPECTRAL+SLOAN calls solve nothing and return
// the first call's bytes.
func TestOrderCachesComponentSolves(t *testing.T) {
	g := disconnectedFixture()
	cache := NewCache(0)
	req := OrderRequest{Seed: 2, Spectral: core.Options{Seed: 2}}
	var first, second, hybrid Result
	if n := countEigensolves(func() { first = orderAlg(t, g, AlgSpectral, req, cache) }); n != 4 {
		t.Fatalf("cold SPECTRAL ran %d eigensolves, want 4", n)
	}
	if n := countEigensolves(func() {
		second = orderAlg(t, g, AlgSpectral, req, cache)
		hybrid = orderAlg(t, g, AlgSpectralSloan, req, cache)
	}); n != 0 {
		t.Fatalf("warm SPECTRAL and SPECTRAL+SLOAN ran %d eigensolves, want 0", n)
	}
	if !second.Perm.Equal(first.Perm) || *second.Solve != *first.Solve || second.Reversed != first.Reversed {
		t.Fatal("cached SPECTRAL differs from the cold run")
	}
	if want := orderAlg(t, g, AlgSpectralSloan, req, nil).Perm; !hybrid.Perm.Equal(want) {
		t.Fatal("cached SPECTRAL+SLOAN differs from the cache-less run")
	}
}

// Order's one-component calls hand out fresh permutations: mutating a
// result never reaches the memoized ordering.
func TestOrderResultIsACopy(t *testing.T) {
	g := graph.Grid(9, 7)
	cache := NewCache(0)
	req := OrderRequest{Seed: 1, Spectral: core.Options{Seed: 1}}
	first := orderAlg(t, g, AlgSpectral, req, cache)
	want := append(perm.Perm(nil), first.Perm...)
	first.Perm[0], first.Perm[1] = first.Perm[1], first.Perm[0]
	if again := orderAlg(t, g, AlgSpectral, req, cache); !again.Perm.Equal(want) {
		t.Fatal("mutating a returned Perm corrupted the cache")
	}
}
