// Package core implements the paper's primary contribution: the spectral
// envelope-reduction ordering (Algorithm 1). Given a sparse symmetric
// matrix pattern it forms the Laplacian of the adjacency graph, computes a
// second Laplacian eigenvector (Fiedler vector) with the multilevel scheme
// of §3 at every size (graphs of at most CoarsestSize vertices go straight
// to its coarsest Lanczos solve; MethodLanczos forces direct Lanczos
// instead), sorts the eigenvector components in both directions, and keeps
// the permutation with the smaller envelope.
//
// Theorem 2.3's guarantee, that the rank permutation of the eigenvector is
// the closest permutation vector to it, is exercised in this package's
// tests; §2.4's near-adjacency-ordering property is as well.
package core

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/lanczos"
	"repro/internal/laplacian"
	"repro/internal/multilevel"
	"repro/internal/order"
	"repro/internal/perm"
	"repro/internal/scratch"
	"repro/internal/solver"
)

// Method selects how the Fiedler vector is computed.
type Method int

const (
	// MethodAuto runs the §3 multilevel scheme at every size — the paper's
	// practical configuration. Components of at most CoarsestSize vertices
	// (default 100) build no hierarchy and go straight to its coarsest
	// Lanczos solve.
	MethodAuto Method = iota
	// MethodLanczos forces the direct Lanczos solver.
	MethodLanczos
	// MethodMultilevel names MethodAuto's solver explicitly.
	MethodMultilevel
)

// Options configures the spectral ordering.
type Options struct {
	// Method picks the eigensolver (default MethodAuto).
	Method Method
	// Lanczos configures the direct solver, which only MethodLanczos and
	// WeightedSpectral run. The multilevel solver's coarsest solve reads
	// Multilevel.Lanczos instead.
	Lanczos lanczos.Options
	// Multilevel configures the multilevel solver.
	Multilevel multilevel.Options
	// Seed drives all randomized pieces; runs are reproducible per seed.
	Seed int64
	// Operator, when non-nil, is a pre-built Laplacian operator of the
	// exact (connected) graph being solved, threaded through to the
	// selected scheme's finest level. The pipeline's per-component artifact
	// cache uses it to share one operator — with its persistent-pool worker
	// partition — across a component's spectral candidates. Leave nil for
	// whole-graph calls: SpectralWS's per-component dispatch builds its own.
	Operator laplacian.Interface
}

// Solver resolves the eigensolver Options select, with seeds defaulted from
// Options.Seed: direct Lanczos for MethodLanczos, the multilevel solver
// otherwise. This is the single construction point of the unified solver
// engine: SpectralWS, the pipeline's artifact cache and the ablation
// benchmarks all go through it.
func (o Options) Solver() solver.Solver {
	if o.Method == MethodLanczos {
		lOpt := o.Lanczos
		if lOpt.Seed == 0 {
			lOpt.Seed = o.Seed
		}
		return solver.Lanczos{Opt: lOpt, Op: o.Operator}
	}
	mlOpt := o.Multilevel
	if mlOpt.Seed == 0 {
		mlOpt.Seed = o.Seed
	}
	if mlOpt.Lanczos.Seed == 0 {
		mlOpt.Lanczos.Seed = o.Seed
	}
	return solver.Multilevel{Opt: mlOpt, Op: o.Operator}
}

// Info reports diagnostics of a spectral ordering run.
type Info struct {
	// Lambda2 is the λ2 estimate of the (largest) component.
	Lambda2 float64
	// Residual is the eigensolver residual on the largest component.
	Residual float64
	// Reversed is true when the nonincreasing sort won the envelope
	// comparison of Algorithm 1 step 3.
	Reversed bool
	// Multilevel is true when the multilevel solver was used for the
	// largest component.
	Multilevel bool
	// Components is the number of connected components ordered.
	Components int
	// MatVecs counts Laplacian applications across every eigensolve of the
	// run, all components and both schemes included (it mirrors
	// Solve.MatVecs). The SpectralSloanWS regression tests use it to prove
	// the hybrid never repeats an eigensolve.
	MatVecs int
	// Solve carries the full uniform solver statistics: estimates (Lambda,
	// Residual, Levels, CoarsestN, Scheme) from the largest component's
	// solve, counters (MatVecs, RQIIterations, JacobiSweeps) summed across
	// every component, Converged and-ed across them.
	Solve solver.Stats
}

// absorb folds one component's solve statistics into the run diagnostics.
// record is true for the largest (first-ordered) component, whose spectral
// estimates become the run's.
func (info *Info) absorb(st solver.Stats, record bool) {
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

// eigensolveCount counts every Fiedler eigensolve this process has
// performed (not consumed-from-cache). The CLI's -stats output and the CI
// persistent-store check read it to prove a warm run solved nothing.
var eigensolveCount atomic.Int64

// EigensolveCount reports the number of Fiedler eigensolves performed by
// this process so far. Unlike Info/Report counters, which attribute cached
// solves to the runs that consume them, this counts work actually done —
// the number a persistent artifact store exists to drive to zero.
func EigensolveCount() int64 { return eigensolveCount.Load() }

// testHookEigensolve, when non-nil, observes every Fiedler eigensolve with
// the component size. Tests install it to assert the solver runs exactly
// once per component.
var testHookEigensolve func(n int)

// SetEigensolveTestHook installs f to observe every Fiedler eigensolve
// (called with the component size) and returns a function restoring the
// previous hook. Tests here and in internal/pipeline use it to prove each
// component's eigensolve runs exactly once across portfolio candidates.
func SetEigensolveTestHook(f func(n int)) (restore func()) {
	prev := testHookEigensolve
	testHookEigensolve = f
	return func() { testHookEigensolve = prev }
}

// SpectralWS computes the spectral envelope-reducing ordering of g
// (Algorithm 1). Disconnected graphs are ordered component by component
// (each uses the eigenvector of the smallest positive eigenvalue of its own
// Laplacian, per the paper's remark in §1) and concatenated largest-first.
// The envelope comparisons and subgraph extractions reuse ws buffers,
// which the parallel pipeline checks out once per worker, and ctx
// interrupts in-flight eigensolves at restart / V-cycle granularity (the
// typed *lanczos.ErrCancelled propagates with the best-so-far fallback
// inside).
func SpectralWS(ctx context.Context, ws *scratch.Workspace, g *graph.Graph, opt Options) (perm.Perm, Info, error) {
	n := g.N()
	info := Info{}
	if n == 0 {
		return perm.Perm{}, info, nil
	}
	if graph.IsConnected(g) {
		info.Components = 1
		o, err := spectralConnected(ctx, ws, g, opt, &info, true)
		return o, info, err
	}
	comps := graph.Components(g)
	info.Components = len(comps)
	// A caller-supplied operator describes the whole graph, not the
	// component subgraphs about to be solved.
	opt.Operator = nil
	out := make(perm.Perm, 0, n)
	var sub graph.Graph
	for ci, comp := range comps {
		g.SubgraphInto(ws, &sub, comp)
		local, err := spectralConnected(ctx, ws, &sub, opt, &info, ci == 0)
		if err != nil {
			return nil, info, fmt.Errorf("core: component %d: %w", ci, err)
		}
		for _, v := range local {
			out = append(out, int32(comp[v]))
		}
	}
	return out, info, nil
}

// FiedlerConnectedWS computes the Fiedler vector of the connected graph g
// with the solver selected by opt, reporting the uniform solver statistics.
// It is the single eigensolve entry point: SpectralWS, SpectralSloanWS and
// the pipeline's per-component artifact cache all funnel through it (and
// through the eigensolve test hook). The returned vector is freshly
// allocated and safe to retain; ws is used only for scratch.
func FiedlerConnectedWS(ctx context.Context, ws *scratch.Workspace, g *graph.Graph, opt Options) ([]float64, solver.Stats, error) {
	eigensolveCount.Add(1)
	if testHookEigensolve != nil {
		testHookEigensolve(g.N())
	}
	return opt.Solver().Solve(ctx, ws, g)
}

// OrderFiedler is Algorithm 1 step 3 on a precomputed Fiedler vector of the
// connected graph g: sort vertices by component value and keep the
// direction with the smaller envelope, scoring both off one fused
// traversal. esize is the winning direction's envelope size (already paid
// for — callers comparing against a refinement should reuse it) and
// reversed reports whether the nonincreasing sort won.
func OrderFiedler(ws *scratch.Workspace, g *graph.Graph, x []float64) (o perm.Perm, esize int64, reversed bool) {
	asc := OrderByValues(x)
	fwd, rev := envelope.EsizeBothInto(ws, g, asc)
	if rev < fwd {
		return asc.Reverse(), rev, true
	}
	return asc, fwd, false
}

func spectralConnected(ctx context.Context, ws *scratch.Workspace, g *graph.Graph, opt Options, info *Info, record bool) (perm.Perm, error) {
	n := g.N()
	if n == 1 {
		return perm.Perm{0}, nil
	}
	x, st, err := FiedlerConnectedWS(ctx, ws, g, opt)
	if err != nil {
		// The failed solve's work still counts toward the run's totals (a
		// caller diagnosing the failure sees what it burned); estimates are
		// not recorded.
		info.MatVecs += st.MatVecs
		info.Solve.Accumulate(st)
		return nil, err
	}
	info.absorb(st, record)
	o, _, reversed := OrderFiedler(ws, g, x)
	if reversed && record {
		info.Reversed = true
	}
	return o, nil
}

// OrderByValues returns the permutation that sorts vertices by
// nondecreasing value (ties by vertex label, making the ordering
// deterministic), in new→old convention. This is the "closest permutation
// vector" construction of Theorem 2.3.
func OrderByValues(x []float64) perm.Perm {
	o := make(perm.Perm, len(x))
	for i := range o {
		o[i] = int32(i)
	}
	sort.SliceStable(o, func(a, b int) bool { return x[o[a]] < x[o[b]] })
	return o
}

// SpectralSloanWS is the hybrid the paper's §4 anticipates ("limited use
// of a local reordering strategy based on the adjacency structure to
// improve the envelope parameters obtained from the spectral method") and
// which Kumfert & Pothen later published: run Sloan's greedy numbering
// with the spectral positions as the global priority term instead of BFS
// distances. It returns the better of the hybrid and the plain spectral
// ordering.
//
// On disconnected graphs the already-computed global spectral ordering is
// sliced per component — SpectralWS concatenates components in
// graph.Components order, so each slice IS that component's spectral
// ordering — rather than re-running the eigensolver per component. Errors
// from the single spectral pass propagate; the refinement itself cannot
// fail (a component that Sloan cannot improve keeps its spectral slice).
func SpectralSloanWS(ctx context.Context, ws *scratch.Workspace, g *graph.Graph, opt Options) (perm.Perm, Info, error) {
	spectral, info, err := SpectralWS(ctx, ws, g, opt)
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
		best = RefineSpectralWS(ws, g, spectral, bestEsize)
	} else {
		// Refine each component's slice of the global spectral ordering and
		// concatenate in the same component order SpectralWS used.
		comps := graph.Components(g)
		out := make(perm.Perm, 0, n)
		mark := ws.Mark()
		// Components come largest-first, so one checkout covers every
		// component's local-ordering buffer.
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
			// Relabel the global slice to component-local labels via the
			// stamp map SubgraphInto just built (old→new binding).
			local := perm.Perm(localBuf[:sz])
			for k, gl := range seg {
				j, ok := ws.MapGet(int(gl))
				if !ok {
					return nil, info, fmt.Errorf("core: spectral ordering does not cover component vertex %d", gl)
				}
				local[k] = j
			}
			pick := RefineSpectralWS(ws, &sub, local, envelope.EsizeInto(ws, &sub, local))
			for _, lv := range pick {
				out = append(out, int32(comp[lv]))
			}
		}
		ws.Release(mark)
		if e := envelope.EsizeInto(ws, g, out); e < bestEsize {
			best, bestEsize = out, e
		}
	}
	return best, info, nil
}

// RefineSpectralWS returns the better of spectral and its Sloan refinement
// on the connected graph g, given spectral's (already-computed) envelope
// size. This is the single acceptance rule of the SPECTRAL+SLOAN hybrid:
// SpectralSloanWS and the pipeline's artifact-backed candidate both call
// it, so the two can never drift apart.
func RefineSpectralWS(ws *scratch.Workspace, g *graph.Graph, spectral perm.Perm, spectralEsize int64) perm.Perm {
	if hybrid, ok := SloanRefine(g, spectral); ok {
		if e := envelope.EsizeInto(ws, g, hybrid); e < spectralEsize {
			return hybrid
		}
	}
	return spectral
}

// SloanRefine runs Sloan's numbering on the connected graph g using the
// spectral ranks as the global priority. The rank spread is rescaled to the
// graph diameter estimate so the W1/W2 balance of classic Sloan carries
// over. Exported for the pipeline's SPECTRAL+SLOAN candidate, which reuses
// the component's cached Fiedler ordering instead of re-running the
// eigensolver.
func SloanRefine(g *graph.Graph, spectral perm.Perm) (perm.Perm, bool) {
	n := g.N()
	inv := spectral.Inverse()
	// Scale ranks 0..n-1 down to a BFS-distance-like range: use the
	// eccentricity of the spectral start vertex as the target spread.
	start := int(spectral[0])
	ecc := graph.Eccentricity(g, start)
	if ecc < 1 {
		ecc = 1
	}
	global := make([]int32, n)
	scale := float64(ecc) / float64(n-1)
	for v := 0; v < n; v++ {
		// High global priority = numbered early in Sloan; position 0 should
		// go first, so invert the rank.
		global[v] = int32(float64(int32(n-1)-inv[v]) * scale)
	}
	o, ok := order.SloanOrderWithGlobal(g, start, global, order.DefaultSloanWeights())
	if !ok {
		return nil, false
	}
	out := make(perm.Perm, len(o))
	copy(out, o)
	return out, true
}
