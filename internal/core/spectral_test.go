package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/laplacian"
	"repro/internal/linalg"
	"repro/internal/order"
	"repro/internal/perm"
	"repro/internal/scratch"
)

func TestSpectralValidPermutation(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":      graph.Path(30),
		"grid":      graph.Grid(8, 6),
		"random":    graph.Random(70, 140, 2),
		"star":      graph.Star(11),
		"complete":  graph.Complete(7),
		"singleton": graph.NewBuilder(1).Build(),
		"empty":     graph.NewBuilder(0).Build(),
		"two-comps": graph.FromEdges(9, [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}, {7, 8}}),
	}
	for name, g := range graphs {
		p, info, err := SpectralWS(context.Background(), scratch.New(), g, Options{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(p) != g.N() {
			t.Errorf("%s: length %d want %d", name, len(p), g.N())
			continue
		}
		if err := p.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		_ = info
	}
}

func TestSpectralPathRecoversNaturalOrder(t *testing.T) {
	// On a path the Fiedler vector is monotone, so the spectral ordering
	// must recover the natural order (or its reverse) — bandwidth 1,
	// envelope n−1: the optimum.
	g := graph.Path(40)
	p, _, err := SpectralWS(context.Background(), scratch.New(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := envelope.Compute(g, p)
	if s.Bandwidth != 1 || s.Esize != 39 {
		t.Fatalf("spectral path: bw=%d Esize=%d, want 1, 39", s.Bandwidth, s.Esize)
	}
}

func TestSpectralGridQuality(t *testing.T) {
	// On an a×b grid (a > b) the spectral ordering should sweep along the
	// long axis, giving envelope close to RCM's (which is near-optimal).
	g := graph.Grid(20, 8)
	p, _, err := SpectralWS(context.Background(), scratch.New(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	es := envelope.Esize(g, p)
	ercm := envelope.Esize(g, order.RCM(g))
	if float64(es) > 1.4*float64(ercm) {
		t.Fatalf("spectral grid envelope %d ≫ RCM %d", es, ercm)
	}
}

func TestSpectralDeterministicPerSeed(t *testing.T) {
	g := graph.Random(120, 240, 3)
	a, _, err := SpectralWS(context.Background(), scratch.New(), g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := SpectralWS(context.Background(), scratch.New(), g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same seed produced different orderings")
	}
}

func TestSpectralMultilevelAgreesWithLanczos(t *testing.T) {
	// The two solvers may pick different tie-breaks but envelope quality
	// must be comparable on a mesh.
	g := graph.Grid(30, 20)
	pl, _, err := SpectralWS(context.Background(), scratch.New(), g, Options{Method: MethodLanczos})
	if err != nil {
		t.Fatal(err)
	}
	pm, infoM, err := SpectralWS(context.Background(), scratch.New(), g, Options{Method: MethodMultilevel})
	if err != nil {
		t.Fatal(err)
	}
	if !infoM.Multilevel {
		t.Fatal("multilevel method not recorded")
	}
	el, em := envelope.Esize(g, pl), envelope.Esize(g, pm)
	if float64(em) > 1.5*float64(el) {
		t.Fatalf("multilevel envelope %d ≫ Lanczos %d", em, el)
	}
}

func TestOrderByValues(t *testing.T) {
	x := []float64{0.3, -1.2, 0.0, 0.3, -5}
	o := OrderByValues(x)
	want := perm.Perm{4, 1, 2, 0, 3} // ties (0.3) keep label order
	if !o.Equal(want) {
		t.Fatalf("OrderByValues = %v, want %v", o, want)
	}
}

// centeredPermVectors enumerates the paper's permutation-vector set P for
// size n (odd: components of {-(n-1)/2..(n-1)/2}; even: ±{1..n/2}).
func centeredValues(n int) []float64 {
	vals := make([]float64, 0, n)
	if n%2 == 1 {
		for k := -(n - 1) / 2; k <= (n-1)/2; k++ {
			vals = append(vals, float64(k))
		}
	} else {
		for k := -n / 2; k <= n/2; k++ {
			if k != 0 {
				vals = append(vals, float64(k))
			}
		}
	}
	return vals
}

// Theorem 2.3: the permutation vector induced by sorting x is the closest
// vector in P to x (2-norm). Verified exhaustively for n ≤ 7.
func TestTheorem23ClosestPermutationExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 3, 4, 5, 6, 7} {
		for trial := 0; trial < 5; trial++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			vals := centeredValues(n)
			// Spectral construction: vertex with rank k gets vals[k].
			o := OrderByValues(x)
			pm := make([]float64, n)
			for k, v := range o {
				pm[v] = vals[k]
			}
			distM := distSq(pm, x)
			// Exhaustive check over all assignments of vals to positions.
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			best := math.Inf(1)
			var rec func(k int)
			used := make([]bool, n)
			assign := make([]float64, n)
			rec = func(k int) {
				if k == n {
					if d := distSq(assign, x); d < best {
						best = d
					}
					return
				}
				for i := 0; i < n; i++ {
					if used[i] {
						continue
					}
					used[i] = true
					assign[k] = vals[i]
					rec(k + 1)
					used[i] = false
				}
			}
			rec(0)
			if distM > best+1e-9 {
				t.Fatalf("n=%d: sorted permutation vector distance %v > optimum %v", n, distM, best)
			}
		}
	}
}

func distSq(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// §2.4: when vertices with positive Fiedler components are added in
// increasing order after N∪Z, each extends the adjacency of the current
// set. Equivalently, with the exact eigenvector, every prefix of the
// spectral ordering that crosses the zero boundary stays connected on the
// positive side; we verify the concrete claim: for j ≥ p−1 (0-based: the
// first position with positive component), v_{j+1} ∈ adj(V_j).
func TestSection24AdjacencyProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.Random(24, 40, seed)
		_, V := linalg.SymEig(laplacian.Dense(g))
		n := g.N()
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = V.At(i, 1)
		}
		o := OrderByValues(x)
		pos := o.Inverse()
		// First position whose component is strictly positive.
		p := n
		for k := 0; k < n; k++ {
			if x[o[k]] > 1e-12 {
				p = k
				break
			}
		}
		for j := p; j < n; j++ {
			// v at position j must be adjacent to some vertex before it.
			v := int(o[j])
			ok := false
			for _, w := range g.Neighbors(v) {
				if int(pos[w]) < j {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("seed %d: position %d (vertex %d) violates the §2.4 adjacency property", seed, j, v)
			}
		}
	}
}

func TestSpectralReversalChoice(t *testing.T) {
	// Build a graph where the two sort directions give different envelopes:
	// a "comet" (clique head + path tail). Algorithm 1 must return the
	// direction with the smaller envelope.
	b := graph.NewBuilder(15)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j)
		}
	}
	for i := 4; i+1 < 15; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Build()
	p, _, err := SpectralWS(context.Background(), scratch.New(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := envelope.Esize(g, p)
	rev := envelope.Esize(g, p.Reverse())
	if got > rev {
		t.Fatalf("Algorithm 1 returned the worse direction: %d vs %d", got, rev)
	}
}

func TestSpectralComponentsOrderedIndependently(t *testing.T) {
	// Two paths: each must appear contiguously and in path order.
	g := graph.FromEdges(12, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, // comp A (6)
		{6, 7}, {7, 8}, {8, 9}, {9, 10}, {10, 11}, // comp B (6)
	})
	p, info, err := SpectralWS(context.Background(), scratch.New(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Components != 2 {
		t.Fatalf("components = %d", info.Components)
	}
	s := envelope.Compute(g, p)
	if s.Bandwidth != 1 {
		t.Fatalf("two-path spectral bandwidth = %d, want 1", s.Bandwidth)
	}
}

func TestSpectralSloanNeverWorseThanSpectral(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := graph.Random(80, 200, seed)
		ps, _, err := SpectralWS(context.Background(), scratch.New(), g, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ph, _, err := SpectralSloanWS(context.Background(), scratch.New(), g, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := ph.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		es, eh := envelope.Esize(g, ps), envelope.Esize(g, ph)
		if eh > es {
			t.Fatalf("seed %d: hybrid %d worse than spectral %d", seed, eh, es)
		}
	}
}

func TestFiedlerVectorExported(t *testing.T) {
	g := graph.Grid(10, 10)
	x, st, err := FiedlerConnectedWS(context.Background(), scratch.New(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 100 {
		t.Fatalf("len = %d", len(x))
	}
	want := 4 * math.Pow(math.Sin(math.Pi/20), 2)
	if math.Abs(st.Lambda-want) > 1e-5*(1+want) {
		t.Fatalf("λ2 = %v, want %v", st.Lambda, want)
	}
}

func BenchmarkSpectralGrid(b *testing.B) {
	g := graph.Grid(60, 60)
	ws := scratch.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SpectralWS(context.Background(), ws, g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
