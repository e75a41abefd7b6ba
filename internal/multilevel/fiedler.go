package multilevel

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/lanczos"
	"repro/internal/laplacian"
	"repro/internal/linalg"
	"repro/internal/scratch"
)

// Options configures the multilevel Fiedler computation.
type Options struct {
	// CoarsestSize is the vertex count below which the hierarchy stops and
	// Lanczos solves directly ("typically 100" per the paper). Default 100.
	CoarsestSize int
	// MaxLevels caps the hierarchy depth. Default 30.
	MaxLevels int
	// SmoothSteps is the number of weighted-Jacobi smoothing sweeps applied
	// to each interpolated vector before RQI. Default 3.
	SmoothSteps int
	// RQI configures the per-level Rayleigh Quotient Iteration.
	RQI RQIOptions
	// Lanczos configures the coarsest-level (and direct fallback) solve.
	Lanczos lanczos.Options
	// Seed drives the randomized maximal independent sets.
	Seed int64
	// FinestOp, when non-nil, is a pre-built Laplacian operator of the
	// input graph, used for the finest-level smoothing/RQI sweeps (and the
	// direct solve when no coarsening happens) instead of constructing one.
	// The pipeline's artifact cache threads the component's shared operator
	// — with its persistent-pool worker partition — through here.
	FinestOp laplacian.Interface
}

func (o *Options) setDefaults() {
	if o.CoarsestSize == 0 {
		o.CoarsestSize = 100
	}
	if o.CoarsestSize < 2 {
		o.CoarsestSize = 2
	}
	if o.MaxLevels == 0 {
		o.MaxLevels = 30
	}
	if o.MaxLevels < 1 {
		o.MaxLevels = 1 // negative caps mean "no coarsening", not a panic
	}
	if o.SmoothSteps == 0 {
		o.SmoothSteps = 3
	}
}

// Result reports the multilevel computation.
type Result struct {
	// Lambda is the Rayleigh quotient of the returned vector — the λ2
	// estimate.
	Lambda float64
	// Vector is the unit-norm Fiedler vector approximation.
	Vector []float64
	// Residual is ‖Lx − λx‖ on the finest graph.
	Residual float64
	// Levels is the number of graphs in the hierarchy (1 = no coarsening).
	Levels int
	// CoarsestN is the vertex count of the coarsest graph.
	CoarsestN int
	// MatVecs counts Laplacian applications across the whole solve: the
	// coarsest Lanczos solve, every smoothing sweep, every RQI residual
	// check and every MINRES inner iteration.
	MatVecs int
	// RQIIterations is the total RQI step count across all levels.
	RQIIterations int
	// JacobiSweeps is the total smoothing sweep count across all levels.
	JacobiSweeps int
	// Workers is the row-block fan-out of the finest-level Laplacian matvec
	// (1 = serial operator).
	Workers int
	// Converged reports whether the solve met its tolerances: the
	// coarsest-level eigensolve converged AND, when a hierarchy was built,
	// the finest-level residual is within the RQI tolerance. When false the
	// returned vector is the best partial result (still usable for
	// ordering) and Residual records how far off it is — previously a
	// partial coarsest solve was silently swallowed.
	Converged bool
}

// FiedlerWS computes an approximate Fiedler vector of the connected graph
// g using the multilevel contraction / interpolation / RQI-refinement
// scheme of §3. Graphs already below CoarsestSize are handed straight to
// Lanczos. The whole hierarchy (coarse CSR arrays, domain maps, per-level
// operators and iterates) lives in ws arenas for the duration of the call.
// The returned vector is freshly allocated and safe to retain.
//
// ctx is checked between hierarchy-build contractions, at every V-cycle
// level and inside the coarsest Lanczos solve's restart loop: on
// cancellation the current iterate is
// piecewise-constant interpolated straight up to the finest level — no
// smoothing or RQI — and returned inside a *lanczos.ErrCancelled as the
// best-so-far fallback, so a budget-expired solve still yields a usable
// ordering vector (cancellation during the build, before any iterate
// exists, carries no fallback).
func FiedlerWS(ctx context.Context, ws *scratch.Workspace, g *graph.Graph, opt Options) (Result, error) {
	opt.setDefaults()
	n := g.N()
	if n == 0 {
		return Result{}, fmt.Errorf("multilevel: empty graph")
	}
	if n == 1 {
		return Result{Lambda: 0, Vector: []float64{1}, Levels: 1, CoarsestN: 1, Converged: true}, nil
	}
	mark := ws.Mark()
	defer ws.Release(mark)

	// Build the hierarchy. Cancellation is observed between contraction
	// levels too: a budget that expired before (or during) the build must
	// not pay for the remaining MIS contractions. No iterate exists yet, so
	// the ErrCancelled carries no fallback (Vector nil — the documented
	// "before anything usable existed" state).
	levels := make([]*graph.Graph, 1, opt.MaxLevels)
	levels[0] = g
	contractions := make([]*Contraction, 0, opt.MaxLevels)
	cur := g
	for cur.N() > opt.CoarsestSize && len(levels) < opt.MaxLevels {
		if ctx != nil && ctx.Err() != nil {
			return Result{Levels: len(levels), CoarsestN: cur.N()}, &lanczos.ErrCancelled{Cause: ctx.Err()}
		}
		c := ContractWS(ws, cur, opt.Seed+int64(len(levels)))
		// Contraction must make progress; an independent set of size == n
		// (edgeless graph) cannot shrink further.
		if c.Coarse.N() >= cur.N() {
			break
		}
		contractions = append(contractions, c)
		levels = append(levels, c.Coarse)
		cur = c.Coarse
	}

	// Solve the coarsest level with Lanczos.
	coarsest := levels[len(levels)-1]
	res := Result{Levels: len(levels), CoarsestN: coarsest.N()}
	var op laplacian.Interface
	if len(levels) == 1 && opt.FinestOp != nil {
		op = opt.FinestOp
	} else {
		op = laplacian.AutoFrom(coarsest, ws.Float64s(coarsest.N()))
	}

	// fallback interpolates the iterate at contraction index li straight up
	// to the finest level — piecewise-constant, no smoothing or RQI — and
	// copies it off the arenas: the cheapest usable vector a cancelled solve
	// can hand back.
	fallback := func(x []float64, li int) []float64 {
		for lj := li; lj >= 0; lj-- {
			fx := ws.Float64s(levels[lj].N())
			contractions[lj].InterpolateInto(fx, x)
			x = fx
		}
		linalg.ProjectOutOnes(x)
		linalg.Normalize(x)
		return append([]float64(nil), x...)
	}

	lres, err := lanczos.Fiedler(ctx, op, op.GershgorinBound(), opt.Lanczos)
	res.MatVecs += lres.MatVecs
	var cancelled *lanczos.ErrCancelled
	if errors.As(err, &cancelled) {
		if lres.Vector == nil {
			return Result{}, fmt.Errorf("multilevel: coarsest solve: %w", err)
		}
		res.Lambda = lres.Lambda
		res.Vector = fallback(lres.Vector, len(contractions)-1)
		return res, &lanczos.ErrCancelled{Cause: cancelled.Cause, Lambda: res.Lambda, Vector: res.Vector}
	}
	if err != nil && lres.Vector == nil {
		return Result{}, fmt.Errorf("multilevel: coarsest solve: %w", err)
	}
	// A partial (not-converged) coarsest vector is still usable for
	// ordering, but the miss must not vanish: record it in Converged and
	// let the finest-level Residual quantify it.
	res.Converged = err == nil
	res.Lambda = lres.Lambda
	x := lres.Vector

	// Interpolate and refine up the hierarchy. Cancellation is checked once
	// per level: a whole V-cycle level (smoothing sweeps plus RQI with its
	// MINRES inner solves) is the unit of interruption, mirroring the
	// per-restart granularity of the Lanczos loop.
	shifted := &linalg.ShiftedOp{}
	finestOp := op
	for li := len(contractions) - 1; li >= 0; li-- {
		if cerr := ctxErr(ctx); cerr != nil {
			// The refinement was truncated: the coarsest solve's Converged
			// must not stand for the unfinished finer levels.
			res.Converged = false
			res.Vector = fallback(x, li)
			return res, &lanczos.ErrCancelled{Cause: cerr, Lambda: res.Lambda, Vector: res.Vector}
		}
		c := contractions[li]
		fineG := levels[li]
		fx := ws.Float64s(fineG.N())
		c.InterpolateInto(fx, x)
		x = fx
		linalg.ProjectOutOnes(x)
		linalg.Normalize(x)
		var fineOp laplacian.Interface
		if li == 0 && opt.FinestOp != nil {
			fineOp = opt.FinestOp
		} else {
			fineOp = laplacian.AutoFrom(fineG, ws.Float64s(fineG.N()))
		}
		res.MatVecs += JacobiSmoothWS(ws, fineG, fineOp, x, opt.SmoothSteps)
		res.JacobiSweeps += opt.SmoothSteps
		res.MatVecs += lobpcgWS(ws, fineG, fineOp, x)
		rr := rqiRefine(ctx, ws, fineOp, x, opt.RQI, shifted)
		res.RQIIterations += rr.Iterations
		res.MatVecs += rr.MatVecs
		res.Lambda = rr.Lambda
		finestOp = fineOp
	}

	// Cancellation during the finest level's refinement must surface: the
	// loop-top check never runs again, and a silently-truncated vector
	// returned with a nil error would be memoized by the artifact cache as
	// if it were the converged solve. The refined iterate still rides along
	// as the fallback. (With no contractions there was no refinement to
	// truncate — the completed coarsest solve stands.)
	if cerr := ctxErr(ctx); cerr != nil && len(contractions) > 0 {
		res.Converged = false // truncated refinement, not a converged solve
		res.Lambda = finestOp.RayleighQuotient(x)
		res.MatVecs++
		res.Vector = append([]float64(nil), x...)
		linalg.ProjectOutOnes(res.Vector)
		linalg.Normalize(res.Vector)
		return res, &lanczos.ErrCancelled{Cause: cerr, Lambda: res.Lambda, Vector: res.Vector}
	}

	res.Lambda = finestOp.RayleighQuotient(x)
	res.Residual = rayleighResidual(ws, finestOp, x)
	res.MatVecs++
	res.Workers = finestOp.Workers()
	if len(contractions) > 0 {
		// The refinement is only converged if the finest residual met the
		// RQI target — the same test rqiRefine applies per level — so the
		// uniform Stats.Converged means the same thing for every scheme.
		rqiOpt := opt.RQI
		rqiOpt.setDefaults()
		scale := finestOp.GershgorinBound()
		if scale <= 0 {
			scale = 1
		}
		res.Converged = res.Converged && res.Residual <= rqiOpt.Tol*scale
		// x is ws-backed; copy it out so the result outlives the arenas.
		x = append([]float64(nil), x...)
	}
	res.Vector = x
	return res, nil
}
