package solver

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/lanczos"
	"repro/internal/multilevel"
	"repro/internal/scratch"
)

// Both real solvers must agree on λ2 of a grid (within the multilevel
// scheme's approximation window) and fill the uniform stats.
func TestSolversAgreeOnGrid(t *testing.T) {
	g := graph.Grid(40, 30)
	want := 4 * math.Pow(math.Sin(math.Pi/80), 2)
	ws := scratch.New()
	for _, s := range []Solver{Lanczos{}, Multilevel{}} {
		x, st, err := s.Solve(context.Background(), ws, g)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(x) != g.N() {
			t.Fatalf("%s: vector length %d, want %d", s.Name(), len(x), g.N())
		}
		if st.MatVecs == 0 {
			t.Errorf("%s: MatVecs not instrumented", s.Name())
		}
		if !st.Converged {
			t.Errorf("%s: not converged (residual %g)", s.Name(), st.Residual)
		}
		if st.Lambda < 0.5*want || st.Lambda > 2.5*want {
			t.Errorf("%s: λ = %g, want ≈ %g", s.Name(), st.Lambda, want)
		}
		if st.CoarsestN == 0 || st.Levels == 0 {
			t.Errorf("%s: hierarchy stats empty: %+v", s.Name(), st)
		}
	}
}

// The multilevel solver on a large graph must build a real hierarchy and
// report RQI/smoothing work; direct Lanczos must report the trivial one.
func TestStatsShapePerScheme(t *testing.T) {
	g := graph.Grid(60, 60)
	ws := scratch.New()
	_, ml, err := Multilevel{}.Solve(context.Background(), ws, g)
	if err != nil {
		t.Fatal(err)
	}
	if ml.Levels < 2 || ml.CoarsestN >= g.N() {
		t.Fatalf("multilevel hierarchy stats: %+v", ml)
	}
	if ml.RQIIterations == 0 || ml.JacobiSweeps == 0 {
		t.Fatalf("multilevel refinement not instrumented: %+v", ml)
	}
	_, lz, err := Lanczos{}.Solve(context.Background(), ws, g)
	if err != nil {
		t.Fatal(err)
	}
	if lz.Levels != 1 || lz.CoarsestN != g.N() {
		t.Fatalf("lanczos stats should be the trivial hierarchy: %+v", lz)
	}
	if lz.RQIIterations != 0 || lz.JacobiSweeps != 0 {
		t.Fatalf("lanczos reports refinement work: %+v", lz)
	}
}

// A starved Lanczos budget yields a usable partial vector with
// Converged=false — not a hard error.
func TestLanczosPartialConvergenceSurfaces(t *testing.T) {
	g := graph.Grid(50, 50)
	ws := scratch.New()
	x, st, err := Lanczos{Opt: lanczos.Options{MaxBasis: 4, MaxRestarts: 1}}.Solve(context.Background(), ws, g)
	if err != nil {
		t.Fatalf("partial convergence must not be a hard error: %v", err)
	}
	if x == nil {
		t.Fatal("no vector returned")
	}
	if st.Converged {
		t.Fatal("starved solve reported Converged=true")
	}
	if st.Residual == 0 {
		t.Fatal("residual not recorded for partial solve")
	}
}

func TestStatsAccumulate(t *testing.T) {
	a := Stats{Lambda: 1, Residual: 2, MatVecs: 10, RQIIterations: 3, JacobiSweeps: 4, Levels: 5, CoarsestN: 6, Converged: true}
	a.Accumulate(Stats{MatVecs: 7, RQIIterations: 1, JacobiSweeps: 2, Converged: true})
	if a.MatVecs != 17 || a.RQIIterations != 4 || a.JacobiSweeps != 6 || !a.Converged {
		t.Fatalf("counters wrong: %+v", a)
	}
	if a.Lambda != 1 || a.Residual != 2 || a.Levels != 5 || a.CoarsestN != 6 {
		t.Fatalf("estimates must stay the recorded solve's: %+v", a)
	}
	a.Accumulate(Stats{Converged: false})
	if a.Converged {
		t.Fatal("Converged must and-accumulate")
	}
}

// MultilevelOptionsRoundTrip: solver options pass through to the scheme.
func TestMultilevelOptionsPassThrough(t *testing.T) {
	g := graph.Grid(50, 50)
	ws := scratch.New()
	_, st, err := Multilevel{Opt: multilevel.Options{CoarsestSize: 30}}.Solve(context.Background(), ws, g)
	if err != nil {
		t.Fatal(err)
	}
	if st.CoarsestN > 30 {
		t.Fatalf("CoarsestSize not honored: %+v", st)
	}
}
