// Package pipeline implements the context-first ordering service behind
// the public API: a registry of pluggable ordering algorithms (Orderer,
// Register, Lookup, Algorithms) into which every built-in self-registers,
// and the engine that runs them one connected component at a time. Order
// runs one algorithm per component; the parallel portfolio engine (Auto)
// orders every component concurrently on a bounded worker pool while
// racing a configurable portfolio of registered Orderers per component,
// scores the candidates by envelope size (ties broken by bandwidth, then
// envelope work, then portfolio position), and stitches the per-component
// winners into one global permutation.
//
// Candidates on the same component share a per-component artifact cache
// (see Artifacts): the Fiedler eigensolve, the pseudo-peripheral root and
// the pseudo-diameter pair are each computed once — by whichever racing
// candidate asks first — so SPECTRAL and SPECTRAL+SLOAN cost one
// eigensolve per component, and the BFS-rooted algorithms share their
// peripheral searches. User-registered Orderers reach the same cache
// through OrderRequest.Artifacts. Artifacts are pure functions of the
// component and the options, so sharing does not perturb determinism or
// results. The cache argument of Order, Auto and Whole additionally
// persists decomposition, subgraphs and artifacts across calls on the same
// graph — the reuse a long-lived Session provides.
//
// The engine is deterministic: for a fixed graph, portfolio and seed the
// result is byte-identical regardless of Parallelism or goroutine
// scheduling, because every (component, algorithm) candidate is computed
// into its own slot and the winner selection is a pure function of the
// collected slots. The only exception is an expiring Budget, which cancels
// in-flight non-fallback candidates (their eigensolves observe the
// deadline context within one restart / V-cycle iteration) and skips
// unstarted ones, and therefore depends on timing; the fallback (first
// portfolio entry) always runs to completion, so a valid permutation is
// produced even with a zero budget.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/scratch"
	"repro/internal/solver"
)

// DefaultPortfolio returns the default Auto contender set: the paper's
// combinatorial baselines plus both spectral variants. The first entry is
// the budget fallback and should stay cheap.
func DefaultPortfolio() []string {
	return []string{AlgRCM, AlgGK, AlgGPS, AlgSloan, AlgSpectral, AlgSpectralSloan}
}

// Options configures Auto.
type Options struct {
	// Portfolio lists the algorithms raced on each component by registry
	// name (case-insensitive; see Register). Empty means DefaultPortfolio.
	// The first entry is the fallback that always runs even past the
	// Budget.
	Portfolio []string
	// Parallelism bounds the worker pool; ≤ 0 means GOMAXPROCS.
	Parallelism int
	// Seed drives the spectral solvers; runs are reproducible per seed.
	Seed int64
	// Spectral carries eigensolver knobs for the spectral portfolio
	// entries. Its Seed defaults to Options.Seed when zero.
	Spectral core.Options
	// Weight is an optional symmetric positive edge-weight function (by
	// g's labels), relabeled per component and passed to candidates via
	// OrderRequest.Weight — required by the WEIGHTED portfolio entry.
	Weight func(u, v int) float64
	// Budget, when positive, soft-limits the run: non-fallback candidates
	// that have not started when the budget expires are skipped, and ones
	// already running are cancelled via a deadline context (in-flight
	// eigensolves return within one restart / V-cycle iteration). Both
	// depend on timing, so budgeted runs trade determinism for latency.
	Budget time.Duration
}

// Candidate reports one algorithm's attempt on one component.
type Candidate struct {
	Algorithm string
	Esize     int64
	Bandwidth int
	Ework     int64
	Seconds   float64
	// Skipped is true when the budget expired before this candidate
	// started; Err is set when the algorithm failed (eigensolver breakdown,
	// budget cancellation mid-solve) or returned an invalid permutation.
	Skipped bool
	Err     string
	// Solve carries the eigensolver statistics behind a spectral candidate
	// (nil for the combinatorial algorithms). SPECTRAL and SPECTRAL+SLOAN
	// report the same solve: the component's artifact cache runs it once
	// and both candidates share the result.
	Solve *solver.Stats `json:",omitempty"`
}

// ComponentReport describes the portfolio outcome on one component.
type ComponentReport struct {
	// Index is the component's position in the stitched ordering (0 =
	// numbered first); components are ordered by decreasing size.
	Index int
	Size  int
	Edges int
	// Winner is the algorithm whose ordering was kept (AlgTrivial for
	// components of ≤ 2 vertices).
	Winner     string
	Stats      envelope.Stats
	Candidates []Candidate
}

// Report describes a whole Auto run.
type Report struct {
	Components []ComponentReport
	// Wins counts stitched winners per algorithm name.
	Wins map[string]int
	// Stats are the envelope parameters of the final global ordering.
	Stats       envelope.Stats
	Parallelism int
	Seconds     float64
	// Eigensolves counts the solve records this run's candidates returned,
	// at most one per component: that of the component's first candidate,
	// in portfolio order, that returned one and was not cancelled. With
	// both spectral candidates in the portfolio this is one per nontrivial
	// component, not two — the per-component artifact cache shares the
	// solve. A solve served from a Session's cross-call cache counts when a
	// candidate of this run returned it; a spectral-free portfolio reports
	// zero even on a warm cache.
	Eigensolves int
	// Solve folds those records in component order, as Order does:
	// estimates (λ2, residual, hierarchy shape) from the first (largest)
	// component's, counters summed, Converged and FromStore and-ed.
	Solve solver.Stats
}

func spectralOpt(opt Options) core.Options {
	s := opt.Spectral
	if s.Seed == 0 {
		s.Seed = opt.Seed
	}
	return s
}

// Portfolio resolves opt.Portfolio (or the default) against the algorithm
// registry, returning the canonical names in race order. Unknown names
// error with the list of registered algorithms.
func Portfolio(opt Options) ([]string, error) {
	names := opt.Portfolio
	if len(names) == 0 {
		names = DefaultPortfolio()
	}
	out := make([]string, len(names))
	for i, name := range names {
		key := Canonical(name)
		if _, ok := Lookup(key); !ok {
			return nil, fmt.Errorf("pipeline: unknown portfolio algorithm %q (registered: %s)",
				name, strings.Join(Algorithms(), ", "))
		}
		out[i] = key
	}
	return out, nil
}

// candidate is one (component, algorithm) slot filled by the worker pool.
type candidate struct {
	Candidate
	order perm.Perm
	stats envelope.Stats
	// cancelled marks a candidate its context stopped; its Solve, if any,
	// is not folded into the run's.
	cancelled bool
}

// componentWork is the per-component state shared between stages; sub
// and art are nil on the components of ≤ 2 vertices Auto places itself.
type componentWork struct {
	size   int
	sub    *graph.Graph
	art    *Artifacts
	weight func(u, v int) float64
	cands  []candidate
}

// Auto computes the portfolio ordering of g. See the package comment for
// the engine's contract; the returned Report names the winning algorithm
// and the losing candidates per component. Cancelling ctx cancels the
// run: Auto returns ctx.Err() and a nil permutation. cache, when non-nil,
// memoizes the component decomposition, subgraph extraction and
// per-component artifacts across Auto calls on the same graph (see Cache);
// Sessions pass theirs.
func Auto(ctx context.Context, g *graph.Graph, opt Options, cache *Cache) (perm.Perm, Report, error) {
	start := time.Now()
	names, err := Portfolio(opt)
	if err != nil {
		return nil, Report{}, err
	}
	orderers := make([]Orderer, len(names))
	for i, name := range names {
		orderers[i], _ = Lookup(name)
	}
	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := Report{Wins: map[string]int{}, Parallelism: workers}

	n := g.N()
	if n == 0 {
		rep.Seconds = time.Since(start).Seconds()
		return perm.Perm{}, rep, nil
	}

	// The budget context lets an expiring Budget interrupt candidates that
	// are already running, not just skip unstarted ones: every non-fallback
	// candidate observes budgetCtx, whose deadline reaches the eigensolver
	// restart loops. The fallback (portfolio position 0) observes only the
	// caller's context, so it always completes and a valid permutation
	// exists past any budget.
	var deadline time.Time
	budgetCtx := ctx
	if opt.Budget > 0 {
		deadline = start.Add(opt.Budget)
		var cancel context.CancelFunc
		budgetCtx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	// Stage 1: decompose into components and extract subgraphs (parallel
	// over components, through the cross-call cache when one is
	// configured). Trivial components (≤ 2 vertices) skip the portfolio —
	// every ordering of them is optimal.
	sopt := spectralOpt(opt)
	res := resolve(g, workers, sopt, cache)
	work := make([]*componentWork, len(res.comps))
	for i := range res.comps {
		work[i] = &componentWork{size: res.size(g, i)}
		if work[i].size > 2 {
			work[i].sub = res.subs[i]
			work[i].art = res.arts[i]
			work[i].weight = res.weight(opt.Weight, i)
		}
	}

	// Stage 2: race the portfolio — one task per (component, algorithm)
	// pair, so a single huge component still exploits portfolio-width
	// parallelism. Each task writes only its own slot; no locks needed.
	type task struct{ ci, ai int }
	var tasks []task
	for ci, w := range work {
		if w.sub == nil {
			continue
		}
		w.cands = make([]candidate, len(names))
		for ai := range names {
			tasks = append(tasks, task{ci, ai})
		}
	}
	runPool(workers, len(tasks), func(ti int, ws *scratch.Workspace) {
		t := tasks[ti]
		w := work[t.ci]
		slot := &w.cands[t.ai]
		slot.Algorithm = names[t.ai]
		if ctx.Err() != nil {
			slot.Skipped = true
			return
		}
		// The budget skips everything but each component's fallback
		// (portfolio position 0), which guarantees a valid result; a
		// non-fallback candidate that does start runs under the deadline
		// context and is cancelled mid-flight when the budget expires.
		taskCtx := ctx
		if t.ai > 0 {
			if !deadline.IsZero() && time.Now().After(deadline) {
				slot.Skipped = true
				return
			}
			taskCtx = budgetCtx
		}
		req := OrderRequest{
			Algorithm: names[t.ai],
			Seed:      opt.Seed,
			Spectral:  w.art.opt, // the seed-defaulted options the artifacts were built for
			Weight:    w.weight,
			Artifacts: w.art,
			Workspace: ws,
		}
		t0 := time.Now()
		ores, err := orderComponent(taskCtx, orderers[t.ai], names[t.ai], w.sub, &req)
		o := ores.Perm
		slot.Seconds = time.Since(t0).Seconds()
		slot.Solve = ores.Solve
		if err != nil {
			slot.Err = err.Error()
			slot.cancelled = isCancelled(err)
			return
		}
		s := envelope.ComputeInto(ws, w.sub, o)
		slot.order = o
		slot.stats = s
		slot.Esize = s.Esize
		slot.Bandwidth = s.Bandwidth
		slot.Ework = s.Ework
	})
	if err := ctx.Err(); err != nil {
		return nil, rep, err
	}

	// Stage 3: fold the solve records the candidates returned, one per
	// component, with Order's rule (see Report.Eigensolves); then pick
	// winners and stitch, in deterministic component order.
	for _, w := range work {
		for ai := range w.cands {
			c := &w.cands[ai]
			if c.Solve == nil || c.cancelled {
				continue
			}
			if rep.Eigensolves == 0 {
				rep.Solve = *c.Solve
			} else {
				foldSolve(&rep.Solve, *c.Solve)
			}
			rep.Eigensolves++
			break
		}
	}
	out := make(perm.Perm, 0, n)
	for ci, w := range work {
		cr := ComponentReport{Index: ci, Size: w.size}
		var local perm.Perm
		if w.sub == nil {
			local = perm.Identity(w.size)
			cr.Winner = AlgTrivial
			if w.size == 2 {
				// A 2-vertex component is a single edge; its envelope
				// parameters are all 1 under any ordering.
				cr.Edges = 1
				cr.Stats = envelope.Stats{Esize: 1, Ework: 1, Bandwidth: 1, OneSum: 1, TwoSum: 1, MaxFrontwidth: 1}
			}
		} else {
			cr.Edges = w.sub.M()
			cr.Candidates = make([]Candidate, len(w.cands))
			best := -1
			for ai := range w.cands {
				cr.Candidates[ai] = w.cands[ai].Candidate
				if w.cands[ai].order == nil {
					continue
				}
				if best < 0 || beats(&w.cands[ai], &w.cands[best]) {
					best = ai
				}
			}
			if best < 0 {
				return nil, rep, fmt.Errorf("pipeline: no portfolio algorithm produced an ordering for component %d (size %d)", ci, w.size)
			}
			local = w.cands[best].order
			cr.Winner = names[best]
			cr.Stats = w.cands[best].stats
		}
		out = res.place(out, local, ci)
		rep.Wins[cr.Winner]++
		rep.Components = append(rep.Components, cr)
	}
	if err := out.Check(); err != nil {
		return nil, rep, fmt.Errorf("pipeline: stitched ordering invalid: %w", err)
	}
	rep.Stats = envelope.Compute(g, out)
	rep.Seconds = time.Since(start).Seconds()
	return out, rep, nil
}

// Order runs the Orderer ord, registered as name, on g: once per connected
// component of two or more vertices, with that component's Artifacts (from
// cache when the options are cacheable, fresh otherwise), the caller's
// workspace or one checked out for the call, and req.Weight relabelled to
// the component's labels. req.Spectral.Seed defaults to req.Seed, as
// Auto's does to Options.Seed. Single vertices are placed by the engine.
// The component orderings are validated and concatenated largest first
// into one fresh permutation, and their solve records folded into one
// (see foldDiagnostics). An error names the failing component on
// disconnected input; the Result then carries the diagnostics gathered so
// far. Order fills Perm, Solve, Reversed and Components; Stats, Algorithm
// and Elapsed are the caller's.
func Order(ctx context.Context, g *graph.Graph, name string, ord Orderer, req OrderRequest, cache *Cache) (Result, error) {
	if req.Workspace == nil {
		ws := scratch.Get()
		defer scratch.Put(ws)
		req.Workspace = ws
	}
	if req.Spectral.Seed == 0 {
		req.Spectral.Seed = req.Seed
	}
	res := resolve(g, 1, req.Spectral, cache)
	out := make(perm.Perm, 0, g.N())
	run := Result{Components: len(res.subs)}
	for i, sub := range res.subs {
		if sub == nil {
			out = res.place(out, perm.Perm{0}, i)
			continue
		}
		creq := req
		creq.Spectral = res.arts[i].opt
		creq.Weight = res.weight(req.Weight, i)
		creq.Artifacts = res.arts[i]
		r, err := orderComponent(ctx, ord, name, sub, &creq)
		foldDiagnostics(&run, r)
		if err != nil {
			if len(res.subs) > 1 {
				err = fmt.Errorf("pipeline: component %d: %w", i, err)
			}
			return run, err
		}
		out = res.place(out, r.Perm, i)
	}
	run.Perm = out
	return run, nil
}

// Whole returns the Artifacts of g when g is one connected component of at
// least two vertices, resolved through cache (nil = fresh, as are options
// that are not cacheable); otherwise it returns nil and the number of
// components g has. It is the whole-graph substrate of Session.Fiedler.
func Whole(g *graph.Graph, sopt core.Options, cache *Cache) (*Artifacts, int) {
	res := resolve(g, 1, sopt, cache)
	if len(res.subs) != 1 || res.subs[0] == nil {
		return nil, len(res.subs)
	}
	return res.arts[0], 1
}

// orderComponent is the per-component call every entry point makes: ord
// under panic isolation (SafeOrder), then the ordering's length — which
// Check alone cannot prove, and a wrong one would crash the envelope
// scorer — and its validity.
func orderComponent(ctx context.Context, ord Orderer, name string, sub *graph.Graph, req *OrderRequest) (Result, error) {
	r, err := SafeOrder(ctx, ord, name, sub, req)
	if err != nil {
		return r, err
	}
	if len(r.Perm) != sub.N() {
		return r, fmt.Errorf("pipeline: %s returned a %d-length ordering for a %d-vertex component", name, len(r.Perm), sub.N())
	}
	if err := r.Perm.Check(); err != nil {
		return r, fmt.Errorf("pipeline: %s returned an invalid permutation: %w", name, err)
	}
	return r, nil
}

// foldDiagnostics folds component result r into the diagnostics of a run,
// in component order (largest first): the first component with a solve
// record gives the estimates and the direction, later ones add their
// counters and and their Converged and FromStore flags.
func foldDiagnostics(run *Result, r Result) {
	if r.Solve == nil {
		return
	}
	if run.Solve == nil {
		st := *r.Solve
		run.Solve, run.Reversed = &st, r.Reversed
		return
	}
	foldSolve(run.Solve, *r.Solve)
}

// foldSolve adds a later component's solve to dst: counters summed,
// Converged and FromStore and-ed, dst's estimates kept.
func foldSolve(dst *solver.Stats, st solver.Stats) {
	dst.Accumulate(st)
	dst.FromStore = dst.FromStore && st.FromStore
}

// beats reports whether candidate a strictly beats b under the scoring
// order (envelope, bandwidth, work); ties keep the earlier portfolio entry.
func beats(a, b *candidate) bool {
	if a.Esize != b.Esize {
		return a.Esize < b.Esize
	}
	if a.Bandwidth != b.Bandwidth {
		return a.Bandwidth < b.Bandwidth
	}
	return a.Ework < b.Ework
}

// runPool executes f(0..count-1) on at most workers goroutines. It is the
// single concurrency primitive of the engine; each index is processed by
// exactly one goroutine. Every worker checks one Workspace out of the
// shared scratch pool for its whole lifetime, so steady-state scoring and
// extraction run without allocations and without cross-worker sharing.
func runPool(workers, count int, f func(int, *scratch.Workspace)) {
	if count == 0 {
		return
	}
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		ws := scratch.Get()
		defer scratch.Put(ws)
		for i := 0; i < count; i++ {
			f(i, ws)
		}
		return
	}
	var next int
	var mu sync.Mutex
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= count {
			return -1
		}
		i := next
		next++
		return i
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ws := scratch.Get()
			defer scratch.Put(ws)
			for {
				i := take()
				if i < 0 {
					return
				}
				f(i, ws)
			}
		}()
	}
	wg.Wait()
}
