// Package solver defines the unified eigensolver engine behind the
// spectral ordering: a single Solver interface with uniform per-solve
// statistics, implemented by the direct Lanczos solver, the §3 multilevel
// scheme and standalone Rayleigh Quotient Iteration.
//
// The abstraction exists so every layer above — internal/core's Algorithm 1
// dispatch, the portfolio pipeline's per-component artifact cache, the
// harness tables and the benchmark tooling — consumes one instrumented
// surface instead of three ad-hoc result types. Every Solve threads a
// scratch.Workspace down into the hierarchy construction and V-cycle
// refinement, so repeated solves on warm arenas run without per-level
// allocations.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/lanczos"
	"repro/internal/laplacian"
	"repro/internal/linalg"
	"repro/internal/multilevel"
	"repro/internal/scratch"
)

// Scheme names for Stats.Scheme / Solver.Name.
const (
	SchemeLanczos    = "lanczos"
	SchemeMultilevel = "multilevel"
	SchemeRQI        = "rqi"
)

// Stats is the uniform per-solve telemetry every Solver reports. Counters
// that a given scheme does not exercise are zero (direct Lanczos performs
// no RQI iterations; its hierarchy is the trivial one-level one).
type Stats struct {
	// Scheme is the Solver.Name of the scheme that produced the solve.
	Scheme string `json:"scheme,omitempty"`
	// Lambda is the λ2 estimate (Rayleigh quotient of the returned vector).
	Lambda float64 `json:"lambda"`
	// Residual is ‖Lx − λx‖ on the input graph.
	Residual float64 `json:"residual"`
	// MatVecs counts Laplacian applications, including MINRES inner
	// iterations and smoothing sweeps.
	MatVecs int `json:"matvecs"`
	// RQIIterations is the total Rayleigh Quotient Iteration step count.
	RQIIterations int `json:"rqi_iterations,omitempty"`
	// JacobiSweeps is the total weighted-Jacobi smoothing sweep count.
	JacobiSweeps int `json:"jacobi_sweeps,omitempty"`
	// Levels is the hierarchy depth (1 = direct solve, no coarsening).
	Levels int `json:"levels"`
	// CoarsestN is the vertex count of the coarsest hierarchy level (the
	// input size for direct solves).
	CoarsestN int `json:"coarsest_n"`
	// Workers is the number of row blocks the Laplacian matvec ran across
	// (1 = serial operator). For the multilevel scheme it reports the
	// finest-level operator; aggregations keep the maximum across solves.
	Workers int `json:"workers,omitempty"`
	// Converged reports whether the solve met its tolerance; false comes
	// with a usable partial vector and a Residual quantifying the miss.
	Converged bool `json:"converged"`
	// FromStore reports that this solve record was loaded from a
	// persistent artifact store instead of computed in this process.
	// Solvers never set it; the store codec does not persist it.
	FromStore bool `json:"from_store,omitempty"`
}

// AddCounters sums only another solve's work counters into s (MatVecs,
// RQIIterations, JacobiSweeps) and keeps the wider of the two Workers
// fan-outs, leaving the spectral estimates and Converged untouched. It is
// the single place the counter field list lives; every aggregator goes
// through it.
func (s *Stats) AddCounters(o Stats) {
	s.MatVecs += o.MatVecs
	s.RQIIterations += o.RQIIterations
	s.JacobiSweeps += o.JacobiSweeps
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
}

// Accumulate folds another solve into s: counters summed (AddCounters) and
// Converged and-ed, while keeping s's spectral estimates (Lambda, Residual,
// Levels, CoarsestN) — the convention the per-component ordering drivers
// use: estimates describe the recorded (largest) component, counters
// describe the whole run.
func (s *Stats) Accumulate(o Stats) {
	s.AddCounters(o)
	s.Converged = s.Converged && o.Converged
}

// Solver computes an approximate Fiedler vector of a connected graph. The
// returned vector is freshly allocated (never workspace-backed) and safe to
// retain; implementations use ws only for scratch.
type Solver interface {
	// Name identifies the scheme ("lanczos", "multilevel", "rqi").
	Name() string
	// Solve computes the Fiedler pair of the connected graph g. A non-nil
	// error means no usable vector was produced; partial convergence is
	// reported via Stats.Converged=false with a usable vector instead.
	// ctx cancels an in-flight solve: the schemes check it at restart /
	// V-cycle granularity and return a *lanczos.ErrCancelled carrying the
	// best-so-far fallback vector (also returned in the vector slot when
	// usable). nil ctx means no cancellation.
	Solve(ctx context.Context, ws *scratch.Workspace, g *graph.Graph) ([]float64, Stats, error)
}

// Lanczos is the direct solver: full-reorthogonalization Lanczos on the
// whole graph, restarted from the best Ritz vector.
type Lanczos struct {
	Opt lanczos.Options
	// Op, when non-nil, is a pre-built Laplacian operator of the graph
	// passed to Solve — the pipeline's artifact cache shares one (with its
	// worker partition) across a component's candidates. Nil builds one per
	// solve, parallelized above the laplacian auto thresholds.
	Op laplacian.Interface
}

// Name implements Solver.
func (Lanczos) Name() string { return SchemeLanczos }

// Solve implements Solver.
func (s Lanczos) Solve(ctx context.Context, ws *scratch.Workspace, g *graph.Graph) ([]float64, Stats, error) {
	m := ws.Mark()
	op := s.Op
	if op == nil {
		op = laplacian.AutoFrom(g, ws.Float64s(g.N()))
	}
	res, err := lanczos.Fiedler(ctx, op, op.GershgorinBound(), s.Opt)
	ws.Release(m)
	st := Stats{
		Scheme:    SchemeLanczos,
		Lambda:    res.Lambda,
		Residual:  res.Residual,
		MatVecs:   res.MatVecs,
		Levels:    1,
		CoarsestN: g.N(),
		Workers:   op.Workers(),
		Converged: err == nil,
	}
	if err != nil && res.Vector == nil {
		return nil, st, err
	}
	// Cancellation propagates as an error — the caller asked the solve to
	// stop — but the best-so-far vector rides along for fallback-aware
	// layers (the portfolio engine's budget path).
	var cancelled *lanczos.ErrCancelled
	if errors.As(err, &cancelled) {
		return res.Vector, st, err
	}
	// A not-fully-converged vector is still usable for ordering — the
	// paper's "terminate the reordering process depending on a stopping
	// criterion" trade-off — so only hard failures propagate.
	return res.Vector, st, nil
}

// Multilevel is the §3 scheme: MIS contraction hierarchy, coarsest-level
// Lanczos, interpolation with Jacobi smoothing and RQI refinement.
type Multilevel struct {
	Opt multilevel.Options
	// Op, when non-nil, is a pre-built Laplacian operator of the finest
	// graph, shared with the refinement sweeps there (see Lanczos.Op).
	Op laplacian.Interface
}

// Name implements Solver.
func (Multilevel) Name() string { return SchemeMultilevel }

// Solve implements Solver.
func (s Multilevel) Solve(ctx context.Context, ws *scratch.Workspace, g *graph.Graph) ([]float64, Stats, error) {
	opt := s.Opt
	if opt.FinestOp == nil {
		opt.FinestOp = s.Op
	}
	res, err := multilevel.FiedlerWS(ctx, ws, g, opt)
	st := Stats{
		Scheme:        SchemeMultilevel,
		Lambda:        res.Lambda,
		Residual:      res.Residual,
		MatVecs:       res.MatVecs,
		RQIIterations: res.RQIIterations,
		JacobiSweeps:  res.JacobiSweeps,
		Levels:        res.Levels,
		CoarsestN:     res.CoarsestN,
		Workers:       res.Workers,
		Converged:     res.Converged,
	}
	if err != nil {
		// A cancelled multilevel solve still reports its interpolated
		// fallback vector alongside the error.
		return res.Vector, st, err
	}
	return res.Vector, st, nil
}

// RQI is standalone Rayleigh Quotient Iteration from a supplied (or seeded
// random, Jacobi-smoothed) start vector. RQI converges cubically to the
// eigenpair nearest its start, so it is a refinement scheme, not a global
// solver: use it to polish an approximate Fiedler vector, or for ablations
// against the full multilevel driver.
type RQI struct {
	Opt multilevel.RQIOptions
	// SmoothSteps smooths a random start toward the low end of the spectrum
	// before iterating (ignored when Start is set). Default 10.
	SmoothSteps int
	// Seed drives the random start vector.
	Seed int64
	// Start, when non-nil, is the initial iterate (copied, not modified).
	Start []float64
}

// Name implements Solver.
func (RQI) Name() string { return SchemeRQI }

// Solve implements Solver.
func (s RQI) Solve(ctx context.Context, ws *scratch.Workspace, g *graph.Graph) ([]float64, Stats, error) {
	n := g.N()
	if n == 0 {
		return nil, Stats{Scheme: SchemeRQI}, fmt.Errorf("solver: empty graph")
	}
	x := make([]float64, n)
	st := Stats{Scheme: SchemeRQI, Levels: 1, CoarsestN: n}
	if s.Start != nil {
		if len(s.Start) != n {
			return nil, st, fmt.Errorf("solver: rqi start has length %d, want %d", len(s.Start), n)
		}
		copy(x, s.Start)
	} else {
		rng := rand.New(rand.NewSource(s.Seed*2654435761 + 12345))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		linalg.ProjectOutOnes(x)
		linalg.Normalize(x)
	}
	m := ws.Mark()
	defer ws.Release(m)
	op := laplacian.AutoFrom(g, ws.Float64s(n))
	st.Workers = op.Workers()
	if s.Start == nil {
		steps := s.SmoothSteps
		if steps == 0 {
			steps = 10
		}
		st.MatVecs += multilevel.JacobiSmoothWS(ws, g, op, x, steps)
		st.JacobiSweeps += steps
	}
	res := multilevel.RQIOnWS(ctx, ws, op, x, s.Opt)
	st.Lambda = res.Lambda
	st.Residual = res.Residual
	st.MatVecs += res.MatVecs
	st.RQIIterations = res.Iterations
	st.Converged = res.Converged
	return x, st, nil
}
