package pipeline

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/perm"
	"repro/internal/scratch"
	"repro/internal/solver"
)

// Canonical algorithm names of the built-in Orderers.
const (
	AlgRCM           = "RCM"
	AlgCM            = "CM"
	AlgGPS           = "GPS"
	AlgGK            = "GK"
	AlgKing          = "KING"
	AlgSloan         = "SLOAN"
	AlgSpectral      = "SPECTRAL"
	AlgSpectralSloan = "SPECTRAL+SLOAN"
	AlgWeighted      = "WEIGHTED"

	// AlgTrivial marks components of ≤ 2 vertices, where every ordering is
	// optimal and the portfolio is not run.
	AlgTrivial = "TRIVIAL"
)

// builtin is the shape every built-in Orderer shares: a whole-graph path
// (Session.Do on uncached or disconnected input; must handle disconnected
// graphs) and a component path that exploits the portfolio engine's
// per-component artifact cache. Both are byte-identical in output to the
// standalone algorithm — the artifact cache removes recomputation, never
// changes results (pinned by TestArtifactCandidatesMatchStandalone).
type builtin struct {
	whole     func(ctx context.Context, ws *scratch.Workspace, g *graph.Graph, req *OrderRequest) (Result, error)
	component func(ctx context.Context, ws *scratch.Workspace, g *graph.Graph, req *OrderRequest) (Result, error)
}

// Order implements Orderer, dispatching on the calling mode (see Orderer).
func (b *builtin) Order(ctx context.Context, g *graph.Graph, req *OrderRequest) (Result, error) {
	ws, release := req.workspace()
	defer release()
	if req.Artifacts != nil {
		return b.component(ctx, ws, g, req)
	}
	return b.whole(ctx, ws, g, req)
}

// plain wraps a bare permutation as a component-mode Result.
func plain(o perm.Perm, err error) (Result, error) {
	return Result{Perm: o}, err
}

// FillConnectedInfo writes into info the exact core.Info a whole-graph
// spectral run reports on a connected graph, reconstructed from the
// memoized artifact state — the fill-style core of connectedInfo, exported
// so the batch executor can back Result.Info with storage it reuses
// across items instead of allocating per call. Every field of info is
// overwritten.
func FillConnectedInfo(info *core.Info, st solver.Stats, reversed bool) {
	*info = core.Info{
		Lambda2:    st.Lambda,
		Residual:   st.Residual,
		Reversed:   reversed,
		Multilevel: st.Scheme == solver.SchemeMultilevel,
		Components: 1,
		MatVecs:    st.MatVecs,
		Solve:      st,
	}
}

// connectedInfo is FillConnectedInfo into a fresh allocation, so the
// artifact-backed path (Session.Do on a connected graph) stays field-
// identical to core.SpectralWS — the session-equivalence contract.
func connectedInfo(st solver.Stats, reversed bool) *core.Info {
	info := new(core.Info)
	FillConnectedInfo(info, st, reversed)
	return info
}

// failedInfo mirrors the core.Info a whole-graph spectral run reports when
// the connected-graph eigensolve errors: the failed solve's burned
// counters, no estimates (see core's spectralConnected error path).
func failedInfo(st solver.Stats) *core.Info {
	info := &core.Info{Components: 1, MatVecs: st.MatVecs}
	info.Solve.Accumulate(st)
	return info
}

// combinatorial wraps a whole-graph combinatorial ordering (no eigensolver,
// no randomness) as the builtin whole path.
func combinatorial(f func(ws *scratch.Workspace, g *graph.Graph) perm.Perm) func(context.Context, *scratch.Workspace, *graph.Graph, *OrderRequest) (Result, error) {
	return func(_ context.Context, ws *scratch.Workspace, g *graph.Graph, _ *OrderRequest) (Result, error) {
		return Result{Perm: f(ws, g)}, nil
	}
}

// spectralResult packages a core spectral run as a Result. The Info pointer
// is set even on error — core reports the work a failed solve burned — so
// a failed Session call still shows what it spent.
func spectralResult(o perm.Perm, info core.Info, err error) (Result, error) {
	return Result{Perm: o, Solve: &info.Solve, Info: &info}, err
}

func init() {
	MustRegister(AlgRCM, &builtin{
		whole: combinatorial(func(ws *scratch.Workspace, g *graph.Graph) perm.Perm { return order.RCMWS(ws, g) }),
		component: func(_ context.Context, ws *scratch.Workspace, g *graph.Graph, req *OrderRequest) (Result, error) {
			return plain(order.RCMFromRootWS(ws, g, req.Artifacts.Root()), nil)
		},
	})
	MustRegister(AlgCM, &builtin{
		whole: combinatorial(func(ws *scratch.Workspace, g *graph.Graph) perm.Perm { return order.CuthillMcKeeWS(ws, g) }),
		component: func(_ context.Context, ws *scratch.Workspace, g *graph.Graph, req *OrderRequest) (Result, error) {
			return plain(order.CuthillMcKeeFromRootWS(ws, g, req.Artifacts.Root()), nil)
		},
	})
	MustRegister(AlgGPS, &builtin{
		whole: combinatorial(func(_ *scratch.Workspace, g *graph.Graph) perm.Perm { return order.GPS(g) }),
		component: func(_ context.Context, _ *scratch.Workspace, g *graph.Graph, req *OrderRequest) (Result, error) {
			u, v, lsU, lsV := req.Artifacts.Diameter()
			return plain(order.GPSFromDiameter(g, u, v, lsU, lsV), nil)
		},
	})
	MustRegister(AlgGK, &builtin{
		whole: combinatorial(func(_ *scratch.Workspace, g *graph.Graph) perm.Perm { return order.GK(g) }),
		component: func(_ context.Context, _ *scratch.Workspace, g *graph.Graph, req *OrderRequest) (Result, error) {
			u, v, lsU, lsV := req.Artifacts.Diameter()
			return plain(order.GKFromDiameter(g, u, v, lsU, lsV), nil)
		},
	})
	MustRegister(AlgKing, &builtin{
		whole: combinatorial(func(_ *scratch.Workspace, g *graph.Graph) perm.Perm { return order.King(g) }),
		component: func(_ context.Context, _ *scratch.Workspace, g *graph.Graph, req *OrderRequest) (Result, error) {
			return plain(order.KingFromRoot(g, req.Artifacts.Root()), nil)
		},
	})
	MustRegister(AlgSloan, &builtin{
		whole: combinatorial(func(ws *scratch.Workspace, g *graph.Graph) perm.Perm { return order.SloanWS(ws, g) }),
		component: func(_ context.Context, ws *scratch.Workspace, g *graph.Graph, req *OrderRequest) (Result, error) {
			u, _, _, lsV := req.Artifacts.Diameter()
			return plain(order.SloanFromDiameterWS(ws, g, u, lsV.LevelOf), nil)
		},
	})
	MustRegister(AlgSpectral, &builtin{
		whole: func(ctx context.Context, ws *scratch.Workspace, g *graph.Graph, req *OrderRequest) (Result, error) {
			o, info, err := core.SpectralWS(ctx, ws, g, req.spectral())
			return spectralResult(o, info, err)
		},
		component: func(ctx context.Context, ws *scratch.Workspace, _ *graph.Graph, req *OrderRequest) (Result, error) {
			o, _, reversed, st, err := req.Artifacts.Spectral(ctx, ws)
			if err != nil {
				return Result{Solve: &st, Info: failedInfo(st)}, err
			}
			return Result{Perm: o, Solve: &st, Info: connectedInfo(st, reversed)}, nil
		},
	})
	MustRegister(AlgSpectralSloan, &builtin{
		whole: func(ctx context.Context, ws *scratch.Workspace, g *graph.Graph, req *OrderRequest) (Result, error) {
			o, info, err := core.SpectralSloanWS(ctx, ws, g, req.spectral())
			return spectralResult(o, info, err)
		},
		component: func(ctx context.Context, ws *scratch.Workspace, g *graph.Graph, req *OrderRequest) (Result, error) {
			spectral, esize, reversed, st, err := req.Artifacts.Spectral(ctx, ws)
			if err != nil {
				return Result{Solve: &st, Info: failedInfo(st)}, err
			}
			return Result{Perm: core.RefineSpectralWS(ws, g, spectral, esize), Solve: &st, Info: connectedInfo(st, reversed)}, nil
		},
	})
	MustRegister(AlgWeighted, &builtin{
		whole: func(ctx context.Context, _ *scratch.Workspace, g *graph.Graph, req *OrderRequest) (Result, error) {
			if req.Weight == nil {
				return Result{}, fmt.Errorf("pipeline: %s needs an edge-weight function (OrderRequest.Weight / Options.Weight)", AlgWeighted)
			}
			o, info, err := core.WeightedSpectral(ctx, g, req.Weight, req.spectral())
			return spectralResult(o, info, err)
		},
		component: func(ctx context.Context, _ *scratch.Workspace, g *graph.Graph, req *OrderRequest) (Result, error) {
			if req.Weight == nil {
				return Result{}, fmt.Errorf("pipeline: %s needs an edge-weight function (Options.Weight)", AlgWeighted)
			}
			// The weighted solve has no artifact to share (its operator is
			// value-dependent, the pattern cache's is not), so the component
			// path is the connected whole-graph path.
			o, info, err := core.WeightedSpectral(ctx, g, req.Weight, req.spectral())
			return spectralResult(o, info, err)
		},
	})
}
