package multilevel

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/lanczos"
	"repro/internal/laplacian"
	"repro/internal/scratch"
)

// Property test over random connected graphs and seeds: Contract yields a
// valid partition — every fine vertex mapped to exactly one in-range
// domain, every domain anchored by its center, the coarse graph simple,
// symmetric and strictly smaller.
func TestContractPartitionProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		n := 60 + int(seed)*37
		g := graph.Random(n, 2*n, seed)
		c := Contract(g, seed)
		nc := c.Coarse.N()
		if nc >= n {
			t.Fatalf("seed %d: contraction did not shrink: %d -> %d", seed, n, nc)
		}
		if len(c.Centers) != nc {
			t.Fatalf("seed %d: %d centers for %d coarse vertices", seed, len(c.Centers), nc)
		}
		if len(c.DomainOf) != n {
			t.Fatalf("seed %d: DomainOf covers %d of %d vertices", seed, len(c.DomainOf), n)
		}
		// Every fine vertex in exactly one domain (DomainOf is total and
		// in range); every domain nonempty.
		size := make([]int, nc)
		for v, d := range c.DomainOf {
			if d < 0 || int(d) >= nc {
				t.Fatalf("seed %d: vertex %d mapped to out-of-range domain %d", seed, v, d)
			}
			size[d]++
		}
		for d, s := range size {
			if s == 0 {
				t.Fatalf("seed %d: domain %d empty", seed, d)
			}
		}
		// Centers are distinct and sit in their own domains.
		seen := make(map[int32]bool, nc)
		for i, ctr := range c.Centers {
			if seen[ctr] {
				t.Fatalf("seed %d: center %d repeated", seed, ctr)
			}
			seen[ctr] = true
			if c.DomainOf[ctr] != int32(i) {
				t.Fatalf("seed %d: center %d not in its own domain", seed, ctr)
			}
		}
		// Coarse graph is canonical CSR: simple, sorted, symmetric, no
		// self-loops.
		if err := c.Coarse.Validate(); err != nil {
			t.Fatalf("seed %d: coarse graph invalid: %v", seed, err)
		}
		// A coarse edge exists iff some fine edge crosses the two domains.
		for u := 0; u < nc; u++ {
			for _, w := range c.Coarse.Neighbors(u) {
				found := false
				for v := 0; v < n && !found; v++ {
					if c.DomainOf[v] != int32(u) {
						continue
					}
					for _, x := range g.Neighbors(v) {
						if c.DomainOf[x] == w {
							found = true
							break
						}
					}
				}
				if !found {
					t.Fatalf("seed %d: coarse edge %d-%d has no crossing fine edge", seed, u, w)
				}
			}
		}
	}
}

// ContractWS must produce exactly what Contract produces (the public entry
// point is a deep copy of the arena-backed result).
func TestContractWSMatchesContract(t *testing.T) {
	g := graph.Grid(18, 13)
	want := Contract(g, 5)
	ws := scratch.New()
	got := ContractWS(ws, g, 5)
	if got.Coarse.N() != want.Coarse.N() {
		t.Fatalf("coarse sizes differ: %d vs %d", got.Coarse.N(), want.Coarse.N())
	}
	for v := range want.DomainOf {
		if got.DomainOf[v] != want.DomainOf[v] {
			t.Fatalf("DomainOf[%d] differs: %d vs %d", v, got.DomainOf[v], want.DomainOf[v])
		}
	}
	for i := range want.Coarse.Xadj {
		if got.Coarse.Xadj[i] != want.Coarse.Xadj[i] {
			t.Fatalf("Xadj[%d] differs", i)
		}
	}
	for i := range want.Coarse.Adj {
		if got.Coarse.Adj[i] != want.Coarse.Adj[i] {
			t.Fatalf("Adj[%d] differs", i)
		}
	}
}

// Interpolation round-trips shapes: the fine vector has one entry per fine
// vertex, is constant on every domain, and averaging it back over each
// domain recovers the coarse vector exactly (piecewise-constant
// prolongation).
func TestInterpolateRoundTripShapes(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := graph.Random(120, 260, seed)
		c := Contract(g, seed)
		nc := c.Coarse.N()
		coarse := make([]float64, nc)
		for i := range coarse {
			coarse[i] = math.Sin(float64(i) * 0.7)
		}
		fine := c.Interpolate(coarse)
		if len(fine) != g.N() {
			t.Fatalf("seed %d: fine length %d, want %d", seed, len(fine), g.N())
		}
		fine2 := make([]float64, g.N())
		c.InterpolateInto(fine2, coarse)
		for v := range fine {
			if fine[v] != fine2[v] {
				t.Fatalf("seed %d: Interpolate and InterpolateInto disagree at %d", seed, v)
			}
			if fine[v] != coarse[c.DomainOf[v]] {
				t.Fatalf("seed %d: vertex %d not constant on its domain", seed, v)
			}
		}
		// Restriction by domain averaging recovers the coarse vector.
		sum := make([]float64, nc)
		cnt := make([]float64, nc)
		for v, d := range c.DomainOf {
			sum[d] += fine[v]
			cnt[d]++
		}
		for d := 0; d < nc; d++ {
			if got := sum[d] / cnt[d]; math.Abs(got-coarse[d]) > 1e-12 {
				t.Fatalf("seed %d: domain %d average %g, want %g", seed, d, got, coarse[d])
			}
		}
	}
}

// RQI on a path graph from a perturbed exact eigenvector must converge to
// the analytic λ2 = 2(1 − cos(π/n)).
func TestRQIConvergesToAnalyticPathLambda2(t *testing.T) {
	for _, n := range []int{100, 500} {
		g := graph.Path(n)
		want := 2 * (1 - math.Cos(math.Pi/float64(n)))
		x := make([]float64, n)
		for v := 0; v < n; v++ {
			// Exact eigenvector cos(π(v+1/2)/n) plus a rough perturbation.
			x[v] = math.Cos(math.Pi*(float64(v)+0.5)/float64(n)) + 0.03*math.Sin(float64(5*v))
		}
		ws := scratch.New()
		res := RQIOnWS(context.Background(), ws, laplacian.New(g), x, RQIOptions{})
		if math.Abs(res.Lambda-want) > 1e-6*(1+want) {
			t.Fatalf("n=%d: RQI λ = %g, want %g (residual %g, iters %d)",
				n, res.Lambda, want, res.Residual, res.Iterations)
		}
		if res.MatVecs == 0 {
			t.Fatalf("n=%d: RQI matvecs not counted", n)
		}
	}
}

// The bugfix regression: a coarsest-level Lanczos solve that runs out of
// budget used to be silently swallowed; now it must surface as
// Converged=false with a usable vector and a nonzero residual.
func TestCoarsestPartialConvergenceSurfaces(t *testing.T) {
	g := graph.Grid(40, 40)
	res, err := FiedlerWS(context.Background(), scratch.New(), g, Options{
		CoarsestSize: 200,
		Lanczos:      lanczos.Options{MaxBasis: 3, MaxRestarts: 1, Tol: 1e-14},
	})
	if err != nil {
		t.Fatalf("partial coarsest convergence must not be a hard error: %v", err)
	}
	if res.Converged {
		t.Fatal("starved coarsest solve reported Converged=true")
	}
	if len(res.Vector) != g.N() {
		t.Fatalf("vector length %d, want %d", len(res.Vector), g.N())
	}
	if res.Residual == 0 {
		t.Fatal("residual not recorded for partial solve")
	}
	// A healthy run reports Converged=true.
	res, err = FiedlerWS(context.Background(), scratch.New(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("healthy solve not converged (residual %g)", res.Residual)
	}
	if res.MatVecs == 0 || res.RQIIterations == 0 || res.JacobiSweeps == 0 {
		t.Fatalf("multilevel instrumentation empty: %+v", res)
	}
}
