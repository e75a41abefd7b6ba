package core

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/lanczos"
	"repro/internal/laplacian"
	"repro/internal/perm"
	"repro/internal/scratch"
	"repro/internal/solver"
)

// WeightedSpectral is Algorithm 1 on the weighted Laplacian: when the
// matrix values are available, sorting the eigenvector of L_w = D_w − W
// (weights |a_uv|) minimizes the continuous relaxation of the *weighted*
// 2-sum, placing strongly coupled rows adjacently. The envelope objective
// used to choose the sort direction stays pattern-based — the envelope is
// a structural quantity.
//
// The weighted solve always uses Lanczos (the multilevel hierarchy in this
// repository is pattern-only); for very large weighted problems expect
// longer solve times than SpectralWS.
func WeightedSpectral(ctx context.Context, g *graph.Graph, weight func(u, v int) float64, opt Options) (perm.Perm, Info, error) {
	n := g.N()
	info := Info{}
	if n == 0 {
		return perm.Perm{}, info, nil
	}
	if graph.IsConnected(g) {
		info.Components = 1
		o, err := weightedConnected(ctx, g, weight, opt, &info, true)
		return o, info, err
	}
	comps := graph.Components(g)
	info.Components = len(comps)
	out := make(perm.Perm, 0, n)
	for ci, comp := range comps {
		sub, old := g.Subgraph(comp)
		subWeight := func(u, v int) float64 { return weight(old[u], old[v]) }
		local, err := weightedConnected(ctx, sub, subWeight, opt, &info, ci == 0)
		if err != nil {
			return nil, info, fmt.Errorf("core: component %d: %w", ci, err)
		}
		for _, v := range local {
			out = append(out, int32(old[v]))
		}
	}
	return out, info, nil
}

func weightedConnected(ctx context.Context, g *graph.Graph, weight func(u, v int) float64, opt Options, info *Info, record bool) (perm.Perm, error) {
	n := g.N()
	if n == 1 {
		return perm.Perm{0}, nil
	}
	op, err := laplacian.NewWeighted(g, weight)
	if err != nil {
		return nil, err
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
		// The failed solve's work still counts toward the run's totals,
		// exactly as in the unweighted path.
		info.MatVecs += st.MatVecs
		info.Solve.Accumulate(st)
		return nil, err
	}
	info.absorb(st, record)
	ws := scratch.Get()
	defer scratch.Put(ws)
	o, _, reversed := OrderFiedler(ws, g, res.Vector)
	if reversed && record {
		info.Reversed = true
	}
	return o, nil
}
