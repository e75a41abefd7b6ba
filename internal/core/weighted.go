package core

import (
	"context"

	"repro/internal/graph"
	"repro/internal/lanczos"
	"repro/internal/laplacian"
	"repro/internal/perm"
	"repro/internal/scratch"
	"repro/internal/solver"
)

// WeightedConnected is Algorithm 1 on the weighted Laplacian of the
// connected graph g: when the matrix values are available, sorting the
// eigenvector of L_w = D_w − W (weights |a_uv|) minimizes the continuous
// relaxation of the *weighted* 2-sum, placing strongly coupled rows
// adjacently. The envelope objective used to choose the sort direction
// stays pattern-based — the envelope is a structural quantity. It returns
// the ordering, the solve's statistics and whether the nonincreasing sort
// won; an error means the solve produced no vector (a partial or
// interrupted solve still orders, with Converged false).
//
// The weighted solve always uses Lanczos (the multilevel hierarchy in this
// repository is pattern-only); for very large weighted problems expect
// longer solve times than the pattern Laplacian's.
func WeightedConnected(ctx context.Context, ws *scratch.Workspace, g *graph.Graph, weight func(u, v int) float64, opt Options) (perm.Perm, solver.Stats, bool, error) {
	n := g.N()
	if n <= 1 {
		return perm.Identity(n), solver.Stats{}, false, nil
	}
	op, err := laplacian.NewWeighted(g, weight)
	if err != nil {
		return nil, solver.Stats{}, false, err
	}
	lOpt := opt.Lanczos
	if lOpt.Seed == 0 {
		lOpt.Seed = opt.Seed
	}
	res, err := lanczos.Fiedler(ctx, op, op.GershgorinBound(), lOpt)
	st := solver.Stats{
		Scheme:    solver.SchemeLanczos,
		Lambda:    res.Lambda,
		Residual:  res.Residual,
		MatVecs:   res.MatVecs,
		Levels:    1,
		CoarsestN: n,
		Converged: err == nil,
	}
	if err != nil && res.Vector == nil {
		return nil, st, false, err
	}
	o, _, reversed := OrderFiedler(ws, g, res.Vector)
	return o, st, reversed, nil
}
