package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/envelope"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scratch"
	"repro/internal/solver"
)

// MethodAuto runs the multilevel solver at every size: the 500-vertex grid
// that used to fall below the Lanczos switch builds a hierarchy.
func TestAutoIsMultilevelAtEverySize(t *testing.T) {
	g := graph.Grid(25, 20)
	_, st, err := spectral(context.Background(), scratch.New(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheme != solver.SchemeMultilevel {
		t.Fatalf("MethodAuto solved a 500-vertex grid with %q", st.Scheme)
	}
	if st.Levels < 2 {
		t.Fatalf("MethodAuto built %d levels on a 500-vertex grid, want ≥ 2", st.Levels)
	}
	if !st.Converged || st.MatVecs == 0 {
		t.Fatalf("healthy multilevel solve misreported: %+v", st)
	}
}

// What the multilevel solver gives up against direct Lanczos in ordering
// quality, on the gen problems of 100 < n ≤ 2000 vertices (generator seed
// 1993, scales 0.1, 0.25 and 0.5), ordering seeds 1 to 5: at most 0.5% in
// summed Esize and 2% on any one graph. RQI alone, started from a smoothed
// interpolant, lands on λ4 or higher on POW9 and fails this by 2.6×
// (POW9@0.5, seed 2); the V-cycle's LOBPCG step is what keeps it on λ2.
func TestAutoMatchesLanczosQuality(t *testing.T) {
	ctx := context.Background()
	ws := scratch.New()
	var sumAuto, sumLanczos int64
	cases := 0
	for _, scale := range []float64{0.1, 0.25, 0.5} {
		for _, spec := range gen.Specs() {
			g := spec.Generate(scale, 1993).G
			if n := g.N(); n <= 100 || n > 2000 {
				continue
			}
			for seed := int64(1); seed <= 5; seed++ {
				pa, _, err := spectral(ctx, ws, g, Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				pl, _, err := spectral(ctx, ws, g, Options{Method: MethodLanczos, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				ea, el := envelope.EsizeInto(ws, g, pa), envelope.EsizeInto(ws, g, pl)
				if r := float64(ea) / float64(el); r > 1.02 {
					t.Errorf("%s@%v seed %d (n=%d): Esize %d is %.4f× Lanczos's %d", spec.Name, scale, seed, g.N(), ea, r, el)
				}
				sumAuto += ea
				sumLanczos += el
				cases++
			}
		}
	}
	if cases < 60 {
		t.Fatalf("only %d cases in the sweep", cases)
	}
	if r := float64(sumAuto) / float64(sumLanczos); r > 1.005 {
		t.Fatalf("summed Esize over %d cases is %.4f× Lanczos's, want ≤ 1.005", cases, r)
	}
}

// A component of at most CoarsestSize (100) vertices builds no hierarchy,
// so MethodAuto's coarsest Lanczos solve is the direct solve and the
// orderings are byte-identical to MethodLanczos's.
func TestAutoSmallGraphsMatchLanczos(t *testing.T) {
	ctx := context.Background()
	ws := scratch.New()
	var graphs []*graph.Graph
	for _, scale := range []float64{0.01, 0.02, 0.05} {
		for _, spec := range gen.Specs() {
			if g := spec.Generate(scale, 1993).G; g.N() <= 100 {
				graphs = append(graphs, g)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		graphs = append(graphs, randomConnected(rng, 10+rng.Intn(91), 1.5+rng.Float64()*2))
	}
	graphs = append(graphs, graph.Grid(10, 10))
	// The components of a disconnected graph, each ordered on its own as
	// the engine orders them.
	fx := disconnectedFixture()
	for _, comp := range graph.Components(fx) {
		if len(comp) > 1 {
			sub, _ := fx.Subgraph(comp)
			graphs = append(graphs, sub)
		}
	}
	if len(graphs) < 40 {
		t.Fatalf("only %d graphs of at most 100 vertices", len(graphs))
	}
	for i, g := range graphs {
		for _, seed := range []int64{1, 2, 3} {
			pa, _, err := spectral(ctx, ws, g, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			pl, _, err := spectral(ctx, ws, g, Options{Method: MethodLanczos, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !pa.Equal(pl) {
				t.Fatalf("graph %d (n=%d) seed %d: MethodAuto ordering differs from MethodLanczos", i, g.N(), seed)
			}
		}
	}
}

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

// randomConnected returns a random connected graph on n vertices: a random
// spanning tree plus about (avgDeg/2 − 1)·n extra edges.
func randomConnected(rng *rand.Rand, n int, avgDeg float64) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, rng.Intn(v))
	}
	for e := 0; e < int((avgDeg/2-1)*float64(n)); e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}
