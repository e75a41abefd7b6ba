package envred_test

import (
	"context"
	"fmt"
	"testing"

	envred "repro"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/lanczos"
	"repro/internal/laplacian"
	"repro/internal/order"
	"repro/internal/perm"
	"repro/internal/scratch"
	"repro/internal/solver"
)

// This file freezes the whole-graph orderings Session.Order used to run
// before every algorithm went through the engine's one-component path:
// core's SpectralWS, SpectralSloanWS and WeightedSpectral, each with its
// own component loop, and the order package's public whole-graph
// functions. The session-equivalence golden test and FuzzOrderers hold the
// engine to them byte for byte. Do not change them to match the engine.

// oracleInfo is the frozen core.Info, the diagnostics record the
// whole-graph paths folded: the largest component's estimates, counters
// summed across components. The engine's answer carries them as its one
// solve record (Result.Solve) beside Result.Reversed and
// Result.Components; checkOracleInfo compares the two field by field.
type oracleInfo struct {
	Lambda2    float64
	Residual   float64
	Reversed   bool
	Multilevel bool
	Components int
	MatVecs    int
	Solve      solver.Stats
}

// checkOracleInfo fails t unless res carries the diagnostics of want: the
// solve record equal to want.Solve, its λ2, residual, matvecs and scheme
// agreeing with want's copies of them, and the same direction and
// component count.
func checkOracleInfo(t *testing.T, tag string, res envred.Result, want oracleInfo) {
	t.Helper()
	if res.Solve == nil {
		t.Fatalf("%s: no solve record, want %+v", tag, want.Solve)
	}
	st := *res.Solve
	if st != want.Solve || st.Lambda != want.Lambda2 || st.Residual != want.Residual || st.MatVecs != want.MatVecs ||
		(st.Scheme == solver.SchemeMultilevel) != want.Multilevel {
		t.Fatalf("%s: solve record differs:\n got %+v\nwant %+v", tag, st, want)
	}
	if res.Reversed != want.Reversed || res.Components != want.Components {
		t.Fatalf("%s: reversed %v, components %d, want %v, %d", tag, res.Reversed, res.Components, want.Reversed, want.Components)
	}
}

// oracleOrder orders g with the frozen whole-graph implementation of the
// built-in algorithm alg. Spectral runs report their folded diagnostics;
// weight is read by WEIGHTED only.
func oracleOrder(ctx context.Context, g *graph.Graph, alg string, seed int64, weight func(u, v int) float64) (perm.Perm, *oracleInfo, error) {
	ws := scratch.New()
	opt := core.Options{Seed: seed}
	var (
		o    perm.Perm
		info oracleInfo
		err  error
	)
	switch alg {
	case envred.AlgRCM:
		return order.RCM(g), nil, nil
	case envred.AlgCM:
		return order.CuthillMcKee(g), nil, nil
	case envred.AlgGPS:
		return order.GPS(g), nil, nil
	case envred.AlgGK:
		return order.GK(g), nil, nil
	case envred.AlgKing:
		return order.King(g), nil, nil
	case envred.AlgSloan:
		return order.Sloan(g), nil, nil
	case envred.AlgSpectral:
		o, info, err = oracleSpectral(ctx, ws, g, opt)
	case envred.AlgSpectralSloan:
		o, info, err = oracleSpectralSloan(ctx, ws, g, opt)
	case envred.AlgWeighted:
		o, info, err = oracleWeighted(ctx, g, weight, opt)
	default:
		return nil, nil, fmt.Errorf("oracle: no frozen implementation of %s", alg)
	}
	return o, &info, err
}

// oracleAbsorb is the frozen core.Info.absorb: it folds one component's
// solve statistics into the run diagnostics; record is true for the
// largest (first-ordered) component, whose spectral estimates become the
// run's.
func oracleAbsorb(info *oracleInfo, st solver.Stats, record bool) {
	info.MatVecs += st.MatVecs
	if record {
		counters := info.Solve
		info.Solve = st
		info.Solve.AddCounters(counters)
		info.Lambda2 = st.Lambda
		info.Residual = st.Residual
		info.Multilevel = st.Scheme == solver.SchemeMultilevel
	} else {
		info.Solve.Accumulate(st)
	}
}

// oracleSpectral is the frozen core.SpectralWS: Algorithm 1, component by
// component, concatenated largest first.
func oracleSpectral(ctx context.Context, ws *scratch.Workspace, g *graph.Graph, opt core.Options) (perm.Perm, oracleInfo, error) {
	n := g.N()
	info := oracleInfo{}
	if n == 0 {
		return perm.Perm{}, info, nil
	}
	if graph.IsConnected(g) {
		info.Components = 1
		o, err := oracleSpectralConnected(ctx, ws, g, opt, &info, true)
		return o, info, err
	}
	comps := graph.Components(g)
	info.Components = len(comps)
	opt.Operator = nil
	out := make(perm.Perm, 0, n)
	var sub graph.Graph
	for ci, comp := range comps {
		g.SubgraphInto(ws, &sub, comp)
		local, err := oracleSpectralConnected(ctx, ws, &sub, opt, &info, ci == 0)
		if err != nil {
			return nil, info, fmt.Errorf("core: component %d: %w", ci, err)
		}
		for _, v := range local {
			out = append(out, int32(comp[v]))
		}
	}
	return out, info, nil
}

func oracleSpectralConnected(ctx context.Context, ws *scratch.Workspace, g *graph.Graph, opt core.Options, info *oracleInfo, record bool) (perm.Perm, error) {
	n := g.N()
	if n == 1 {
		return perm.Perm{0}, nil
	}
	x, st, err := core.FiedlerConnectedWS(ctx, ws, g, opt)
	if err != nil {
		info.MatVecs += st.MatVecs
		info.Solve.Accumulate(st)
		return nil, err
	}
	oracleAbsorb(info, st, record)
	o, _, reversed := core.OrderFiedler(ws, g, x)
	if reversed && record {
		info.Reversed = true
	}
	return o, nil
}

// oracleSpectralSloan is the frozen core.SpectralSloanWS: the better of the
// spectral ordering and its per-component Sloan refinement, refining each
// component's slice of the global spectral ordering.
func oracleSpectralSloan(ctx context.Context, ws *scratch.Workspace, g *graph.Graph, opt core.Options) (perm.Perm, oracleInfo, error) {
	spectral, info, err := oracleSpectral(ctx, ws, g, opt)
	if err != nil {
		return nil, info, err
	}
	n := g.N()
	if n <= 2 {
		return spectral, info, nil
	}
	best := spectral
	bestEsize := envelope.EsizeInto(ws, g, spectral)

	if graph.IsConnected(g) {
		best = core.RefineSpectralWS(ws, g, spectral, bestEsize)
	} else {
		comps := graph.Components(g)
		out := make(perm.Perm, 0, n)
		mark := ws.Mark()
		localBuf := ws.Int32s(len(comps[0]))
		var sub graph.Graph
		off := 0
		for _, comp := range comps {
			sz := len(comp)
			seg := spectral[off : off+sz]
			off += sz
			if sz <= 2 {
				out = append(out, seg...)
				continue
			}
			g.SubgraphInto(ws, &sub, comp)
			local := perm.Perm(localBuf[:sz])
			for k, gl := range seg {
				j, ok := ws.MapGet(int(gl))
				if !ok {
					return nil, info, fmt.Errorf("core: spectral ordering does not cover component vertex %d", gl)
				}
				local[k] = j
			}
			pick := core.RefineSpectralWS(ws, &sub, local, envelope.EsizeInto(ws, &sub, local))
			for _, lv := range pick {
				out = append(out, int32(comp[lv]))
			}
		}
		ws.Release(mark)
		if e := envelope.EsizeInto(ws, g, out); e < bestEsize {
			best = out
		}
	}
	return best, info, nil
}

// oracleWeighted is the frozen core.WeightedSpectral: Algorithm 1 on the
// weighted Laplacian, component by component, with direct Lanczos.
func oracleWeighted(ctx context.Context, g *graph.Graph, weight func(u, v int) float64, opt core.Options) (perm.Perm, oracleInfo, error) {
	n := g.N()
	info := oracleInfo{}
	if n == 0 {
		return perm.Perm{}, info, nil
	}
	if graph.IsConnected(g) {
		info.Components = 1
		o, err := oracleWeightedConnected(ctx, g, weight, opt, &info, true)
		return o, info, err
	}
	comps := graph.Components(g)
	info.Components = len(comps)
	out := make(perm.Perm, 0, n)
	for ci, comp := range comps {
		sub, old := g.Subgraph(comp)
		subWeight := func(u, v int) float64 { return weight(old[u], old[v]) }
		local, err := oracleWeightedConnected(ctx, sub, subWeight, opt, &info, ci == 0)
		if err != nil {
			return nil, info, fmt.Errorf("core: component %d: %w", ci, err)
		}
		for _, v := range local {
			out = append(out, int32(old[v]))
		}
	}
	return out, info, nil
}

func oracleWeightedConnected(ctx context.Context, g *graph.Graph, weight func(u, v int) float64, opt core.Options, info *oracleInfo, record bool) (perm.Perm, error) {
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
		info.MatVecs += st.MatVecs
		info.Solve.Accumulate(st)
		return nil, err
	}
	oracleAbsorb(info, st, record)
	ws := scratch.Get()
	defer scratch.Put(ws)
	o, _, reversed := core.OrderFiedler(ws, g, res.Vector)
	if reversed && record {
		info.Reversed = true
	}
	return o, nil
}
