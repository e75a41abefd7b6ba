package multilevel

import (
	"context"

	"repro/internal/graph"
	"repro/internal/laplacian"
	"repro/internal/linalg"
	"repro/internal/scratch"
)

// ctxErr is a nil-tolerant ctx.Err: callers that never cancel may pass nil.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// RQIOptions configures the Rayleigh Quotient Iteration refinement.
type RQIOptions struct {
	// MaxIter caps the RQI steps per level; cubic convergence means "one or
	// perhaps two iterations" usually suffice (paper §3). Default 8: where
	// λ2 and λ3 lie within a percent of each other, a start mixing their
	// eigenvectors can take six steps to settle on one of them.
	MaxIter int
	// Tol is the relative residual target ‖Lx − ρx‖ ≤ Tol·scale. Default 1e-7.
	Tol float64
	// InnerTol is the MINRES relative tolerance. Default 1e-6.
	InnerTol float64
	// InnerMaxIter caps MINRES iterations per solve. Default 200.
	InnerMaxIter int
}

func (o *RQIOptions) setDefaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 8
	}
	if o.Tol == 0 {
		o.Tol = 1e-7
	}
	if o.InnerTol == 0 {
		o.InnerTol = 1e-6
	}
	if o.InnerMaxIter == 0 {
		o.InnerMaxIter = 200
	}
}

// RQIResult reports the refined eigenpair.
type RQIResult struct {
	Lambda     float64
	Residual   float64
	Iterations int
	InnerIters int
	// MatVecs counts Laplacian applications (residual checks plus one per
	// MINRES inner iteration).
	MatVecs int
	// Converged reports Residual ≤ Tol·scale under the iteration's own
	// tolerance — the single source of truth consumers should read instead
	// of re-deriving the test.
	Converged bool
}

// JacobiSmoothWS applies weighted-Jacobi smoothing steps toward the
// small end of the spectrum: x ← x − ω·D⁻¹(Lx − ρx), keeping x ⊥ 1. It
// knocks the piecewise-constant interpolation artifacts (high-frequency
// error) out of the iterate before RQI locks onto an eigenpair. It returns
// the matvec count (one Laplacian application per sweep). The V-cycle
// smooths every interpolant with it.
func JacobiSmoothWS(ws *scratch.Workspace, g *graph.Graph, op laplacian.Interface, x []float64, steps int) int {
	n := g.N()
	m := ws.Mark()
	defer ws.Release(m)
	y := ws.Float64s(n)
	const omega = 0.5
	for s := 0; s < steps; s++ {
		rho := op.RayleighQuotient(x)
		op.Apply(x, y)
		for v := 0; v < n; v++ {
			d := float64(g.Degree(v))
			if d == 0 {
				d = 1
			}
			x[v] -= omega * (y[v] - rho*x[v]) / d
		}
		linalg.ProjectOutOnes(x)
		linalg.Normalize(x)
	}
	return steps
}

// RQIOnWS refines an approximate Fiedler vector x (modified in place) of
// the Laplacian op using Rayleigh Quotient Iteration: repeatedly solve
// (L − ρI)·y = x with MINRES (the symmetric-indefinite role SYMMLQ plays in
// the original implementation) and renormalize, where ρ is the current
// Rayleigh quotient. Iterates are kept orthogonal to the constant vector,
// on which L − ρI is nonsingular for 0 < ρ < λ2 or λ2-adjacent shifts.
// The residual and solution vectors and the MINRES work vectors all come
// from ws. ctx is checked once per RQI step: on cancellation the iteration
// stops at the current iterate (Converged=false) instead of starting
// another MINRES inner solve.
func RQIOnWS(ctx context.Context, ws *scratch.Workspace, op laplacian.Interface, x []float64, opt RQIOptions) RQIResult {
	shifted := &linalg.ShiftedOp{A: op}
	return rqiRefine(ctx, ws, op, x, opt, shifted)
}

// rqiRefine is the workspace-threaded RQI core shared by RQIOnWS and the
// V-cycle in FiedlerWS. shifted is a reusable shifted-operator shell (its A
// and Sigma are overwritten) so the hot loop boxes no new operator values;
// the caller allocates it once per solve.
func rqiRefine(ctx context.Context, ws *scratch.Workspace, op laplacian.Interface, x []float64, opt RQIOptions, shifted *linalg.ShiftedOp) RQIResult {
	opt.setDefaults()
	scale := op.GershgorinBound()
	if scale <= 0 {
		scale = 1
	}
	n := op.Dim()

	linalg.ProjectOutOnes(x)
	if linalg.Normalize(x) == 0 {
		// Degenerate input: fall back to an arbitrary non-constant vector.
		for i := range x {
			x[i] = float64(1 - 2*(i&1))
		}
		linalg.ProjectOutOnes(x)
		linalg.Normalize(x)
	}

	m := ws.Mark()
	defer ws.Release(m)
	var res RQIResult
	r := ws.Float64s(n)
	y := ws.Float64s(n)
	work := linalg.MINRESWork{
		V: ws.Float64s(n), VOld: ws.Float64s(n), W: ws.Float64s(n),
		D: ws.Float64s(n), DOld: ws.Float64s(n), DOld2: ws.Float64s(n),
	}
	shifted.A = op
	for it := 0; it < opt.MaxIter; it++ {
		rho := op.RayleighQuotient(x)
		op.Apply(x, r)
		res.MatVecs++
		linalg.Axpy(-rho, x, r)
		res.Lambda = rho
		res.Residual = linalg.Nrm2(r)
		res.Iterations = it
		if res.Residual <= opt.Tol*scale {
			res.Converged = true
			return res
		}
		// Cancellation stops the refinement before the next (expensive)
		// MINRES inner solve; the current iterate stays usable.
		if ctxErr(ctx) != nil {
			return res
		}
		shifted.Sigma = rho
		mr := linalg.MINRESWS(shifted, x, y, linalg.MINRESOptions{
			Tol:         opt.InnerTol,
			MaxIter:     opt.InnerMaxIter,
			ProjectOnes: true,
		}, &work)
		res.InnerIters += mr.Iterations
		res.MatVecs += mr.Iterations
		linalg.ProjectOutOnes(y)
		if linalg.Normalize(y) == 0 {
			// Breakdown: the solve returned (numerically) zero. Keep x.
			return res
		}
		copy(x, y)
	}
	rho := op.RayleighQuotient(x)
	op.Apply(x, r)
	res.MatVecs++
	linalg.Axpy(-rho, x, r)
	res.Lambda = rho
	res.Residual = linalg.Nrm2(r)
	res.Iterations = opt.MaxIter
	res.Converged = res.Residual <= opt.Tol*scale
	return res
}

// rayleighResidual returns ‖Lx − ρx‖ for diagnostics, using a ws-backed
// residual vector.
func rayleighResidual(ws *scratch.Workspace, op laplacian.Interface, x []float64) float64 {
	m := ws.Mark()
	defer ws.Release(m)
	r := ws.Float64s(op.Dim())
	rho := op.RayleighQuotient(x)
	op.Apply(x, r)
	linalg.Axpy(-rho, x, r)
	return linalg.Nrm2(r)
}
