package multilevel

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/laplacian"
	"repro/internal/linalg"
	"repro/internal/scratch"
)

func TestMaximalIndependentSetIsIndependentAndMaximal(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := graph.Random(80, 160, seed)
		mis := MaximalIndependentSet(g, seed)
		inSet := make([]bool, g.N())
		for _, v := range mis {
			inSet[v] = true
		}
		// Independence.
		for _, v := range mis {
			for _, w := range g.Neighbors(int(v)) {
				if inSet[w] {
					t.Fatalf("seed %d: adjacent vertices %d,%d both in MIS", seed, v, w)
				}
			}
		}
		// Maximality: every vertex is in the set or has a neighbor in it.
		for v := 0; v < g.N(); v++ {
			if inSet[v] {
				continue
			}
			ok := false
			for _, w := range g.Neighbors(v) {
				if inSet[w] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("seed %d: vertex %d not dominated", seed, v)
			}
		}
	}
}

func TestMISDeterministic(t *testing.T) {
	g := graph.Grid(10, 10)
	a := MaximalIndependentSet(g, 3)
	b := MaximalIndependentSet(g, 3)
	if len(a) != len(b) {
		t.Fatal("same seed different MIS size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed different MIS")
		}
	}
}

func TestContractShrinksAndCovers(t *testing.T) {
	g := graph.Grid(20, 20)
	c := Contract(g, 1)
	if c.Coarse.N() >= g.N() {
		t.Fatalf("no shrinkage: %d -> %d", g.N(), c.Coarse.N())
	}
	if c.Coarse.N() != len(c.Centers) {
		t.Fatalf("coarse N %d != centers %d", c.Coarse.N(), len(c.Centers))
	}
	// Every fine vertex has a valid domain.
	for v, d := range c.DomainOf {
		if d < 0 || int(d) >= c.Coarse.N() {
			t.Fatalf("vertex %d domain %d out of range", v, d)
		}
	}
	// Centers belong to their own domains.
	for i, ctr := range c.Centers {
		if c.DomainOf[ctr] != int32(i) {
			t.Fatalf("center %d not in its domain", ctr)
		}
	}
	if err := c.Coarse.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestContractPreservesConnectivity(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.Random(150, 250, seed)
		c := Contract(g, seed)
		if !graph.IsConnected(c.Coarse) {
			t.Fatalf("seed %d: contraction disconnected a connected graph", seed)
		}
	}
}

// Domains are connected: each domain grows by BFS from its center.
func TestContractDomainsConnected(t *testing.T) {
	g := graph.Grid(15, 15)
	c := Contract(g, 2)
	for dom := 0; dom < c.Coarse.N(); dom++ {
		var members []int
		for v, d := range c.DomainOf {
			if int(d) == dom {
				members = append(members, v)
			}
		}
		sub, _ := g.Subgraph(members)
		if !graph.IsConnected(sub) {
			t.Fatalf("domain %d (size %d) not connected", dom, len(members))
		}
	}
}

func TestInterpolate(t *testing.T) {
	g := graph.Grid(8, 8)
	c := Contract(g, 1)
	coarse := make([]float64, c.Coarse.N())
	for i := range coarse {
		coarse[i] = float64(i)
	}
	fine := c.Interpolate(coarse)
	for v, d := range c.DomainOf {
		if fine[v] != coarse[d] {
			t.Fatalf("vertex %d: %v != domain value %v", v, fine[v], coarse[d])
		}
	}
}

func TestRQIRefinesPerturbedEigenvector(t *testing.T) {
	g := graph.Grid(12, 9)
	// Exact Fiedler vector from the dense solver, then perturb.
	eig, V := linalg.SymEig(laplacian.Dense(g))
	n := g.N()
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = V.At(i, 1) + 0.05*math.Sin(float64(3*i))
	}
	res := RQIOnWS(context.Background(), scratch.New(), laplacian.New(g), x, RQIOptions{})
	if math.Abs(res.Lambda-eig[1]) > 1e-6*(1+eig[1]) {
		t.Fatalf("RQI λ = %v, want %v (residual %v)", res.Lambda, eig[1], res.Residual)
	}
}

func TestRQIZeroInputRecovers(t *testing.T) {
	g := graph.Path(20)
	x := make([]float64, 20) // degenerate all-zero start
	res := RQIOnWS(context.Background(), scratch.New(), laplacian.New(g), x, RQIOptions{MaxIter: 8})
	if linalg.Nrm2(x) == 0 {
		t.Fatal("RQI left zero vector")
	}
	if res.Lambda < 0 {
		t.Fatalf("negative Rayleigh quotient %v", res.Lambda)
	}
}

func TestFiedlerMatchesClosedFormsLarge(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"Path600", graph.Path(600), 4 * math.Pow(math.Sin(math.Pi/1200), 2)},
		{"Grid40x30", graph.Grid(40, 30), 4 * math.Pow(math.Sin(math.Pi/80), 2)},
		{"Cycle500", graph.Cycle(500), 2 - 2*math.Cos(2*math.Pi/500)},
	}
	for _, tc := range cases {
		res, err := FiedlerWS(context.Background(), scratch.New(), tc.g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Levels < 2 {
			t.Errorf("%s: expected multilevel hierarchy, got %d levels", tc.name, res.Levels)
		}
		// The multilevel result is approximate; accept a generous relative
		// window around λ2 but demand it not lock onto λ3 ≈ 4·λ2 for these
		// graphs. (Orderings only need the right global shape.)
		if tc.want > 0 && (res.Lambda < 0.5*tc.want || res.Lambda > 2.5*tc.want) {
			t.Errorf("%s: λ = %v, want ≈ %v", tc.name, res.Lambda, tc.want)
		}
	}
}

func TestFiedlerSmallGraphDirect(t *testing.T) {
	g := graph.Grid(6, 5) // below CoarsestSize ⇒ pure Lanczos
	res, err := FiedlerWS(context.Background(), scratch.New(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels != 1 {
		t.Fatalf("levels = %d, want 1", res.Levels)
	}
	want := 4 * math.Pow(math.Sin(math.Pi/12), 2)
	if math.Abs(res.Lambda-want) > 1e-6*(1+want) {
		t.Fatalf("λ2 = %v, want %v", res.Lambda, want)
	}
}

func TestFiedlerVectorQuality(t *testing.T) {
	// On a long path the multilevel vector must be (nearly) monotone —
	// the property that makes the spectral ordering work.
	g := graph.Path(2000)
	res, err := FiedlerWS(context.Background(), scratch.New(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := res.Vector
	// Count adjacent inversions; a good approximation has very few.
	invUp, invDown := 0, 0
	for i := 1; i < len(x); i++ {
		if x[i] < x[i-1] {
			invUp++
		} else if x[i] > x[i-1] {
			invDown++
		}
	}
	inv := invUp
	if invDown < invUp {
		inv = invDown
	}
	if inv > len(x)/50 {
		t.Fatalf("path Fiedler vector has %d/%d adjacent inversions", inv, len(x)-1)
	}
}

func TestFiedlerOrthogonalToOnes(t *testing.T) {
	g := graph.Random(3000, 6000, 4)
	res, err := FiedlerWS(context.Background(), scratch.New(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range res.Vector {
		sum += v
	}
	if math.Abs(sum) > 1e-6 {
		t.Fatalf("1ᵀx = %v", sum)
	}
	if math.Abs(linalg.Nrm2(res.Vector)-1) > 1e-8 {
		t.Fatalf("‖x‖ = %v", linalg.Nrm2(res.Vector))
	}
}

func TestFiedlerEmptyGraphError(t *testing.T) {
	if _, err := FiedlerWS(context.Background(), scratch.New(), graph.NewBuilder(0).Build(), Options{}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestFiedlerSingleton(t *testing.T) {
	res, err := FiedlerWS(context.Background(), scratch.New(), graph.NewBuilder(1).Build(), Options{})
	if err != nil || len(res.Vector) != 1 {
		t.Fatalf("singleton: %+v, %v", res, err)
	}
}

// Theorem 2.5 (Fiedler): for the exact second eigenvector, S(p) = {v : x_v ≥ p}
// induces a connected subgraph for p ≤ 0, and S'(p) = {v : x_v ≤ p} for p ≥ 0.
func TestTheorem25Connectivity(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := graph.Random(30, 45, seed)
		_, V := linalg.SymEig(laplacian.Dense(g))
		n := g.N()
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = V.At(i, 1)
		}
		thresholds := []float64{-0.3, -0.1, -0.01, 0}
		for _, p := range thresholds {
			var s []int
			for v := 0; v < n; v++ {
				if x[v] >= p {
					s = append(s, v)
				}
			}
			if len(s) == 0 {
				continue
			}
			sub, _ := g.Subgraph(s)
			if !graph.IsConnected(sub) {
				t.Fatalf("seed %d: S(%v) disconnected", seed, p)
			}
		}
		for _, p := range []float64{0, 0.01, 0.1, 0.3} {
			var s []int
			for v := 0; v < n; v++ {
				if x[v] <= p {
					s = append(s, v)
				}
			}
			if len(s) == 0 {
				continue
			}
			sub, _ := g.Subgraph(s)
			if !graph.IsConnected(sub) {
				t.Fatalf("seed %d: S'(%v) disconnected", seed, p)
			}
		}
	}
}

func BenchmarkMultilevelFiedler(b *testing.B) {
	g := graph.Grid(120, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FiedlerWS(context.Background(), scratch.New(), g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
