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

// Multilevel runs must report nonzero MatVecs in Info — the acceptance
// criterion closing the "multilevel contributes 0" gap.
func TestMultilevelMatVecsInstrumented(t *testing.T) {
	g := graph.Grid(30, 30)
	_, info, err := SpectralWS(context.Background(), scratch.New(), g, Options{Method: MethodMultilevel, Multilevel: multilevel.Options{CoarsestSize: 60}})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Multilevel {
		t.Fatal("multilevel solver not recorded")
	}
	if info.MatVecs == 0 {
		t.Fatal("multilevel run reports 0 MatVecs")
	}
	if info.Solve.Scheme != solver.SchemeMultilevel {
		t.Fatalf("Solve.Scheme = %q, want %q", info.Solve.Scheme, solver.SchemeMultilevel)
	}
	if info.Solve.MatVecs != info.MatVecs {
		t.Fatalf("Info.MatVecs %d does not mirror Solve.MatVecs %d", info.MatVecs, info.Solve.MatVecs)
	}
	if info.Solve.Levels < 2 || info.Solve.RQIIterations == 0 || info.Solve.JacobiSweeps == 0 {
		t.Fatalf("multilevel solve stats incomplete: %+v", info.Solve)
	}
	if !info.Solve.Converged {
		t.Fatalf("healthy solve not converged: %+v", info.Solve)
	}
}

// The partial-convergence bugfix must propagate to Info: a starved
// multilevel coarsest solve surfaces Converged=false through Info.Solve
// while still producing a valid ordering.
func TestPartialConvergencePropagatesToInfo(t *testing.T) {
	g := graph.Grid(40, 40)
	opt := Options{Method: MethodMultilevel}
	opt.Multilevel.CoarsestSize = 200
	opt.Multilevel.Lanczos = lanczos.Options{MaxBasis: 3, MaxRestarts: 1, Tol: 1e-14}
	p, info, err := SpectralWS(context.Background(), scratch.New(), g, opt)
	if err != nil {
		t.Fatalf("partial convergence must not be a hard error: %v", err)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if info.Solve.Converged {
		t.Fatal("starved coarsest solve reported Converged=true in Info")
	}
	if info.Solve.Residual == 0 {
		t.Fatal("residual not propagated for partial solve")
	}
}

// On a disconnected graph the Info counters aggregate across components
// while the estimates stay the largest component's.
func TestInfoAggregatesAcrossComponents(t *testing.T) {
	g := disconnectedFixture()
	_, info, err := SpectralWS(context.Background(), scratch.New(), g, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if info.Components != 5 {
		t.Fatalf("components = %d, want 5", info.Components)
	}
	if info.Solve.MatVecs != info.MatVecs {
		t.Fatalf("Solve.MatVecs %d != MatVecs %d", info.Solve.MatVecs, info.MatVecs)
	}
	// The largest component (6x6 grid) is what the estimates describe.
	if info.Solve.CoarsestN != 36 {
		t.Fatalf("estimates not from the largest component: %+v", info.Solve)
	}
	if !info.Solve.Converged {
		t.Fatalf("all-healthy run not converged: %+v", info.Solve)
	}
}
