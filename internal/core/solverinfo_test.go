package core

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/lanczos"
	"repro/internal/multilevel"
	"repro/internal/scratch"
	"repro/internal/solver"
)

// Multilevel runs must report nonzero MatVecs in their solve record — the
// acceptance criterion closing the "multilevel contributes 0" gap.
func TestMultilevelMatVecsInstrumented(t *testing.T) {
	g := graph.Grid(30, 30)
	_, st, err := spectral(context.Background(), scratch.New(), g, Options{Method: MethodMultilevel, Multilevel: multilevel.Options{CoarsestSize: 60}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheme != solver.SchemeMultilevel {
		t.Fatalf("Scheme = %q, want %q", st.Scheme, solver.SchemeMultilevel)
	}
	if st.MatVecs == 0 {
		t.Fatal("multilevel run reports 0 MatVecs")
	}
	if st.Levels < 2 || st.RQIIterations == 0 || st.JacobiSweeps == 0 {
		t.Fatalf("multilevel solve stats incomplete: %+v", st)
	}
	if !st.Converged {
		t.Fatalf("healthy solve not converged: %+v", st)
	}
}

// The partial-convergence bugfix must propagate to the solve record: a
// starved multilevel coarsest solve surfaces Converged=false while still
// producing a valid ordering.
func TestPartialConvergencePropagatesToSolve(t *testing.T) {
	g := graph.Grid(40, 40)
	opt := Options{Method: MethodMultilevel}
	opt.Multilevel.CoarsestSize = 200
	opt.Multilevel.Lanczos = lanczos.Options{MaxBasis: 3, MaxRestarts: 1, Tol: 1e-14}
	p, st, err := spectral(context.Background(), scratch.New(), g, opt)
	if err != nil {
		t.Fatalf("partial convergence must not be a hard error: %v", err)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if st.Converged {
		t.Fatal("starved coarsest solve reported Converged=true")
	}
	if st.Residual == 0 {
		t.Fatal("residual not propagated for partial solve")
	}
}
