package pipeline

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/laplacian"
	"repro/internal/order"
	"repro/internal/perm"
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

// The built-in Orderers order the one connected component they are given
// from its artifacts (see Orderer): the cache removes recomputation, never
// changes results (pinned by TestArtifactCandidatesMatchStandalone).

// fiedlerResult packages a spectral ordering of one component as a
// Result. On error the Solve carries the failed solve's burned counters
// and no Perm, so a failed call still shows what it spent. A call that
// gave up waiting for another caller's solve ran none (a zero st; see
// Artifacts.Fiedler) and carries no solve record at all.
func fiedlerResult(o perm.Perm, st solver.Stats, reversed bool, err error) (Result, error) {
	if err != nil && st == (solver.Stats{}) {
		return Result{}, err
	}
	return Result{Perm: o, Solve: &st, Reversed: reversed}, err
}

func init() {
	MustRegister(AlgRCM, OrdererFunc(func(_ context.Context, g *graph.Graph, req *OrderRequest) (Result, error) {
		return Result{Perm: order.RCMFromRootWS(req.Workspace, g, req.Artifacts.Root())}, nil
	}))
	MustRegister(AlgCM, OrdererFunc(func(_ context.Context, g *graph.Graph, req *OrderRequest) (Result, error) {
		return Result{Perm: order.CuthillMcKeeFromRootWS(req.Workspace, g, req.Artifacts.Root())}, nil
	}))
	MustRegister(AlgGPS, OrdererFunc(func(_ context.Context, g *graph.Graph, req *OrderRequest) (Result, error) {
		u, v, lsU, lsV := req.Artifacts.Diameter()
		return Result{Perm: order.GPSFromDiameter(g, u, v, lsU, lsV)}, nil
	}))
	MustRegister(AlgGK, OrdererFunc(func(_ context.Context, g *graph.Graph, req *OrderRequest) (Result, error) {
		u, v, lsU, lsV := req.Artifacts.Diameter()
		return Result{Perm: order.GKFromDiameter(g, u, v, lsU, lsV)}, nil
	}))
	MustRegister(AlgKing, OrdererFunc(func(_ context.Context, g *graph.Graph, req *OrderRequest) (Result, error) {
		return Result{Perm: order.KingFromRoot(g, req.Artifacts.Root())}, nil
	}))
	MustRegister(AlgSloan, OrdererFunc(func(_ context.Context, g *graph.Graph, req *OrderRequest) (Result, error) {
		u, _, _, lsV := req.Artifacts.Diameter()
		return Result{Perm: order.SloanFromDiameterWS(req.Workspace, g, u, lsV.LevelOf)}, nil
	}))
	MustRegister(AlgSpectral, OrdererFunc(func(ctx context.Context, _ *graph.Graph, req *OrderRequest) (Result, error) {
		o, _, reversed, st, err := req.Artifacts.Spectral(ctx, req.Workspace)
		return fiedlerResult(o, st, reversed, err)
	}))
	MustRegister(AlgSpectralSloan, OrdererFunc(func(ctx context.Context, g *graph.Graph, req *OrderRequest) (Result, error) {
		o, esize, reversed, st, err := req.Artifacts.Spectral(ctx, req.Workspace)
		if err == nil {
			o = core.RefineSpectralWS(req.Workspace, g, o, esize)
		}
		return fiedlerResult(o, st, reversed, err)
	}))
	MustRegister(AlgWeighted, OrdererFunc(func(ctx context.Context, g *graph.Graph, req *OrderRequest) (Result, error) {
		if req.Weight == nil {
			return Result{}, fmt.Errorf("pipeline: %s needs an edge-weight function (OrderRequest.Weight / Options.Weight)", AlgWeighted)
		}
		// Algorithm 1 on L_w = D_w − W (weights |a_uv|): sorting its
		// Fiedler vector places strongly coupled rows adjacently, while the
		// envelope that picks the sort direction stays pattern-based. The
		// value-dependent operator has no artifact to share, and it runs
		// direct Lanczos because the multilevel hierarchy is pattern-only.
		op, err := laplacian.NewWeighted(g, req.Weight)
		if err != nil {
			return Result{}, err
		}
		opt := req.Spectral
		opt.Operator = op
		opt.Method = core.MethodLanczos
		x, st, err := core.FiedlerConnectedWS(ctx, req.Workspace, g, opt)
		if err != nil {
			return fiedlerResult(nil, st, false, err)
		}
		o, _, reversed := core.OrderFiedler(req.Workspace, g, x)
		return fiedlerResult(o, st, reversed, nil)
	}))
}
