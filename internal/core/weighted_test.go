package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/laplacian"
	"repro/internal/linalg"
	"repro/internal/perm"
	"repro/internal/scratch"
)

func unit(u, v int) float64 { return 1 }

func TestWeightedUnitMatchesUnweighted(t *testing.T) {
	g := graph.Random(60, 110, 3)
	pw, infoW, err := WeightedSpectral(context.Background(), g, unit, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	pu, infoU, err := SpectralWS(context.Background(), scratch.New(), g, Options{Method: MethodLanczos, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(infoW.Lambda2-infoU.Lambda2) > 1e-8*(1+infoU.Lambda2) {
		t.Fatalf("λ2: weighted %v vs unweighted %v", infoW.Lambda2, infoU.Lambda2)
	}
	if !pw.Equal(pu) {
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
		"two-comps": graph.FromEdges(7, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}}),
	}
	w := func(u, v int) float64 { return 1 + 0.1*float64((u+v)%5) }
	for name, g := range graphs {
		p, _, err := WeightedSpectral(context.Background(), g, w, Options{Seed: 1})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(p) != g.N() || p.Check() != nil {
			t.Errorf("%s: invalid permutation", name)
		}
	}
}

func TestWeightedSpectralRejectsNonPositive(t *testing.T) {
	g := graph.Path(4)
	bad := func(u, v int) float64 { return -1 }
	if _, _, err := WeightedSpectral(context.Background(), g, bad, Options{}); err == nil {
		t.Fatal("negative weights accepted")
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
	p, _, err := WeightedSpectral(context.Background(), g, w, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pos := p.Inverse()
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

// Weighted Laplacian spectral facts: a path with uniform weight w has
// λ2 = 4w·sin²(π/2n).
func TestWeightedLaplacianScaling(t *testing.T) {
	g := graph.Path(20)
	for _, w := range []float64{0.5, 2, 7.25} {
		op, err := laplacian.NewWeighted(g, func(u, v int) float64 { return w })
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 20)
		for i := range x {
			x[i] = math.Cos((float64(i) + 0.5) * math.Pi / 20)
		}
		linalg.ProjectOutOnes(x)
		want := 4 * w * math.Pow(math.Sin(math.Pi/40), 2)
		if got := op.RayleighQuotient(x); math.Abs(got-want) > 1e-10*(1+want) {
			t.Fatalf("w=%v: RQ = %v, want %v", w, got, want)
		}
		// Apply consistency: RQ computed both ways agrees.
		y := make([]float64, 20)
		op.Apply(x, y)
		rq := linalg.Dot(x, y) / linalg.Dot(x, x)
		if math.Abs(rq-want) > 1e-10*(1+want) {
			t.Fatalf("w=%v: Apply-based RQ = %v, want %v", w, rq, want)
		}
	}
}

func TestWeightedGershgorin(t *testing.T) {
	g := graph.Star(6)
	op, err := laplacian.NewWeighted(g, func(u, v int) float64 { return 3 })
	if err != nil {
		t.Fatal(err)
	}
	// Center weighted degree = 15; bound = 30 ≥ λn = 3·6 = 18.
	if b := op.GershgorinBound(); b != 30 {
		t.Fatalf("bound = %v", b)
	}
}

func TestWeightedSpectralEnvelopeNotWorseThanRandom(t *testing.T) {
	g := graph.Grid9(12, 12)
	w := func(u, v int) float64 { return 1 + float64(u%3) }
	p, _, err := WeightedSpectral(context.Background(), g, w, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if envelope.Esize(g, p) >= envelope.Esize(g, perm.Random(g.N(), 7)) {
		t.Fatal("weighted spectral no better than random")
	}
}
