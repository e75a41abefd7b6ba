package core_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/pipeline"
)

// The weighted spectral ordering is Algorithm 1 on L_w = D_w − W: the
// WEIGHTED built-in solves it through FiedlerConnectedWS with the weighted
// Laplacian as the operator and sorts with OrderFiedler. These tests run
// it as every caller does, through the ordering engine.

func unit(u, v int) float64 { return 1 }

// engineOrder runs the registered algorithm alg on g through the engine,
// uncached.
func engineOrder(g *graph.Graph, alg string, req pipeline.OrderRequest) (pipeline.Result, error) {
	ord, _ := pipeline.Lookup(alg)
	return pipeline.Order(context.Background(), g, alg, ord, req, nil)
}

func weighted(g *graph.Graph, w func(u, v int) float64, seed int64) (pipeline.Result, error) {
	return engineOrder(g, pipeline.AlgWeighted, pipeline.OrderRequest{Seed: seed, Weight: w})
}

func TestWeightedUnitMatchesUnweighted(t *testing.T) {
	g := graph.Random(60, 110, 3)
	rw, err := weighted(g, unit, 4)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := engineOrder(g, pipeline.AlgSpectral, pipeline.OrderRequest{Seed: 4, Spectral: core.Options{Method: core.MethodLanczos, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if lw, lu := rw.Solve.Lambda, ru.Solve.Lambda; math.Abs(lw-lu) > 1e-8*(1+lu) {
		t.Fatalf("λ2: weighted %v vs unweighted %v", lw, lu)
	}
	if pw, pu := rw.Perm, ru.Perm; !pw.Equal(pu) {
		// Same eigenvalue but possibly sign-flipped vector; envelopes must
		// agree regardless.
		if envelope.Esize(g, pw) != envelope.Esize(g, pu) {
			t.Fatalf("unit-weight ordering differs in envelope: %d vs %d",
				envelope.Esize(g, pw), envelope.Esize(g, pu))
		}
	}
}

func TestWeightedSpectralValid(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":      graph.Grid(9, 7),
		"star":      graph.Star(8),
		"singleton": graph.NewBuilder(1).Build(),
		"empty":     graph.NewBuilder(0).Build(),
	}
	w := func(u, v int) float64 { return 1 + 0.1*float64((u+v)%5) }
	for name, g := range graphs {
		res, err := weighted(g, w, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p := res.Perm; len(p) != g.N() || p.Check() != nil {
			t.Errorf("%s: invalid permutation", name)
		}
	}
}

func TestWeightedSpectralRejectsNonPositive(t *testing.T) {
	g := graph.Path(4)
	bad := func(u, v int) float64 { return -1 }
	res, err := weighted(g, bad, 0)
	if err == nil {
		t.Fatal("negative weights accepted")
	}
	if res.Solve != nil {
		t.Fatalf("rejected weights carry a solve record: %+v", *res.Solve)
	}
}

// A "barbell": two cliques joined by a path of weak links. The weighted
// Fiedler vector must keep each clique contiguous in the ordering —
// strongly coupled rows stay adjacent.
func TestWeightedSpectralBarbell(t *testing.T) {
	b := graph.NewBuilder(14)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j) // clique A: 0..4
		}
	}
	for i := 9; i < 14; i++ {
		for j := i + 1; j < 14; j++ {
			b.AddEdge(i, j) // clique B: 9..13
		}
	}
	for i := 4; i < 10; i++ {
		b.AddEdge(i, i+1) // bridge path 4-5-...-10 (4 and 9 are in cliques)
	}
	g := b.Build()
	w := func(u, v int) float64 {
		inA := func(x int) bool { return x < 5 }
		inB := func(x int) bool { return x >= 9 }
		if (inA(u) && inA(v)) || (inB(u) && inB(v)) {
			return 10 // strong intra-clique coupling
		}
		return 0.1 // weak bridge
	}
	res, err := weighted(g, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	pos := res.Perm.Inverse()
	spanOf := func(lo, hi int) int {
		min, max := 1<<30, -1
		for v := lo; v <= hi; v++ {
			if int(pos[v]) < min {
				min = int(pos[v])
			}
			if int(pos[v]) > max {
				max = int(pos[v])
			}
		}
		return max - min
	}
	if s := spanOf(0, 4); s != 4 {
		t.Fatalf("clique A not contiguous: span %d", s)
	}
	if s := spanOf(9, 13); s != 4 {
		t.Fatalf("clique B not contiguous: span %d", s)
	}
}

func TestWeightedSpectralEnvelopeNotWorseThanRandom(t *testing.T) {
	g := graph.Grid9(12, 12)
	w := func(u, v int) float64 { return 1 + float64(u%3) }
	res, err := weighted(g, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if envelope.Esize(g, res.Perm) >= envelope.Esize(g, perm.Random(g.N(), 7)) {
		t.Fatal("weighted spectral no better than random")
	}
}
