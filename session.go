package envred

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/perm"
	"repro/internal/pipeline"
	"repro/internal/scratch"
)

// SessionOptions configures a Session. The zero value is a good default:
// seed 0, automatic eigensolver selection, GOMAXPROCS portfolio workers
// and a DefaultCacheGraphs-sized artifact cache.
type SessionOptions struct {
	// Seed drives every randomized piece of the session's runs; fixed seed
	// ⇒ reproducible results.
	Seed int64
	// Spectral carries the eigensolver options used when a call does not
	// supply its own. Its Seed defaults to SessionOptions.Seed when zero.
	Spectral SpectralOptions
	// Parallelism bounds Session.Auto's worker pool (≤ 0 = GOMAXPROCS).
	Parallelism int
	// Portfolio is Session.Auto's contender list by registry name (empty =
	// DefaultPortfolio).
	Portfolio []string
	// Budget soft-limits Session.Auto runs (0 = unlimited); see
	// AutoOptions.Budget.
	Budget time.Duration
	// CacheGraphs bounds the per-graph artifact cache: > 0 sets the
	// capacity, 0 means DefaultCacheGraphs, < 0 disables caching.
	CacheGraphs int
	// Store, when non-nil, is the persistent tier behind the in-memory
	// cache (see OpenStore): cache misses probe it by content fingerprint
	// before solving, successful solves are written back, and a corrupt or
	// unreadable entry degrades to a miss — never a wrong answer. The
	// session does not own the store: the caller opens it, may share it
	// across sessions and processes, and closes it after the session is
	// done. Setting Store implies an artifact cache even when CacheGraphs
	// < 0 (the store is reached through it). See the package documentation
	// ("Persistent artifact store") for the full contract.
	Store Store
}

// Session is the entry point of the ordering service: a reusable,
// goroutine-safe object that owns a per-graph artifact cache (component
// decomposition, extracted subgraphs, Fiedler eigensolves, peripheral
// roots and pseudo-diameter pairs, LRU-bounded by
// SessionOptions.CacheGraphs) and runs every call on the shared
// scratch-arena, Lanczos-workspace and parallel-SpMV worker pools, so a
// long-lived Session amortizes all of that across calls. For strictly
// stateless use, build one with CacheGraphs: -1.
//
// All methods are context-first: cancellation and deadlines interrupt
// in-flight eigensolves at restart / V-cycle granularity, returning the
// typed *ErrCancelled with the best-so-far fallback inside. Methods may be
// called concurrently from any number of goroutines; concurrent calls on
// the same graph share cached artifacts instead of repeating work.
//
// The in-memory cache is tier 1: keyed by graph pointer, it lives and dies
// with the Session; Intern adds a content key over the same LRU for callers
// that hold equal graphs in distinct instances. SessionOptions.Store adds a
// persistent tier 2 keyed by content fingerprint — tier-1 misses are filled
// from the store before solving and solves are written back, so
// eigensolves survive restarts and pool across processes sharing one
// store. A solve loaded from the store reports SolveStats.FromStore.
//
// Caching never changes results: every cached artifact is a pure function
// of the graph and the options, so cached Session calls are byte-identical
// to cache-less ones and to the direct internal paths (pinned by the
// session-equivalence golden tests) — and store-warmed calls to all of
// them.
type Session struct {
	opt   SessionOptions
	cache *pipeline.Cache
}

// NewSession returns a Session with the given options. The zero
// SessionOptions value is valid.
func NewSession(opt SessionOptions) *Session {
	s := &Session{opt: opt}
	if opt.CacheGraphs >= 0 || opt.Store != nil {
		s.cache = pipeline.NewCache(opt.CacheGraphs)
		if opt.Store != nil {
			s.cache.SetStore(opt.Store)
		}
	}
	return s
}

// Order runs one registered algorithm (see Algorithms) on g — the whole
// graph, disconnected inputs included — and reports the uniform Result.
// The algorithm name is case-insensitive; unknown names error with the
// registered list.
func (s *Session) Order(ctx context.Context, g *Graph, algorithm string) (Result, error) {
	return s.Do(ctx, g, algorithm, OrderRequest{Seed: s.opt.Seed, Spectral: s.opt.Spectral})
}

// OrderWeighted is Order with a symmetric positive edge-weight function —
// the input of the WEIGHTED spectral algorithm (and of any registered
// Orderer that reads OrderRequest.Weight).
func (s *Session) OrderWeighted(ctx context.Context, g *Graph, algorithm string, weight func(u, v int) float64) (Result, error) {
	return s.Do(ctx, g, algorithm, OrderRequest{Seed: s.opt.Seed, Spectral: s.opt.Spectral, Weight: weight})
}

// Do runs a registered algorithm with an explicit request — the escape
// hatch Order and OrderWeighted are sugar over, and the way to pass
// per-call eigensolver options. The request's Seed defaults to the
// session's; its Artifacts and Workspace fields are managed by the engine
// and should be left nil. Result.Stats carries the envelope parameters of
// the returned ordering.
func (s *Session) Do(ctx context.Context, g *Graph, algorithm string, req OrderRequest) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	name := pipeline.Canonical(algorithm)
	ord, ok := pipeline.Lookup(name)
	if !ok {
		return Result{}, fmt.Errorf("envred: unknown algorithm %q (registered: %v)", algorithm, Algorithms())
	}
	if req.Seed == 0 {
		req.Seed = s.opt.Seed
	}
	// Pre-default the spectral seed exactly as the portfolio engine does,
	// so a registered Orderer observes the same request whether it was
	// invoked here or raced inside Auto.
	if req.Spectral.Seed == 0 {
		req.Spectral.Seed = req.Seed
	}
	req.Algorithm = name
	// On connected inputs, hand the orderer the session's memoized
	// whole-graph artifact cache (eigensolve, peripheral root, pseudo-
	// diameter): repeated Order calls on the same graph — and mixed
	// SPECTRAL / SPECTRAL+SLOAN / BFS-rooted calls — then share the
	// expensive precomputations. Artifacts are pure functions of
	// (graph, options), so results stay byte-identical to the uncached
	// path (pinned by the session-equivalence golden test). Components of
	// < 3 vertices, disconnected graphs, cache-less sessions and
	// caller-supplied operators (see pipeline.Cache.WholeIfConnected) take
	// the whole-graph path.
	cached := false
	if req.Artifacts == nil && g.N() >= 3 {
		req.Artifacts = s.cache.WholeIfConnected(g, req.Spectral)
		cached = req.Artifacts != nil
	}
	start := time.Now()
	// SafeOrder: a panicking registered Orderer becomes this call's error
	// (*pipeline.PanicError, stack attached) — a third-party algorithm can
	// fail a request, never the process hosting the Session.
	res, err := pipeline.SafeOrder(ctx, ord, name, g, &req)
	res.Algorithm = name
	res.Elapsed = time.Since(start)
	if err != nil {
		return res, err
	}
	if cached && res.Perm != nil {
		// The artifact-backed paths may return the memoized ordering
		// itself; callers own their Result, so hand out a copy and keep the
		// cache immutable.
		res.Perm = append(perm.Perm(nil), res.Perm...)
	}
	// Length first: Check only proves the slice permutes its own indices,
	// and the envelope scorer panics on a size mismatch.
	if len(res.Perm) != g.N() {
		return res, fmt.Errorf("envred: %s returned a %d-length ordering for a %d-vertex graph", name, len(res.Perm), g.N())
	}
	if cerr := res.Perm.Check(); cerr != nil {
		return res, fmt.Errorf("envred: %s returned an invalid permutation: %w", name, cerr)
	}
	res.Stats = envelope.Compute(g, res.Perm)
	return res, nil
}

// Auto splits g into connected components, orders every component
// concurrently while racing the session's portfolio of ordering
// algorithms, keeps the candidate with the smallest envelope per component
// (ties: bandwidth, then work), and stitches the winners into one global
// permutation, reusing the session's per-graph artifact cache. The result
// is deterministic for a fixed seed regardless of Parallelism, unless a
// Budget is set: budget expiry skips unstarted candidates and cancels
// in-flight ones by wall clock, so budgeted runs trade determinism for
// latency (the first portfolio entry always runs to completion, so the
// result stays valid). The full per-component report rides in
// Result.Report.
//
// Prefer Auto over the single SPECTRAL ordering when the input may be
// disconnected, when no single algorithm is known to dominate on the
// workload, or when spare cores are available to hide the portfolio's
// cost.
func (s *Session) Auto(ctx context.Context, g *Graph) (Result, error) {
	return s.AutoWith(ctx, g, AutoOptions{
		Seed:        s.opt.Seed,
		Spectral:    s.opt.Spectral,
		Parallelism: s.opt.Parallelism,
		Portfolio:   s.opt.Portfolio,
		Budget:      s.opt.Budget,
	})
}

// AutoWith is Auto with explicit engine options; the session contributes
// its artifact cache.
func (s *Session) AutoWith(ctx context.Context, g *Graph, opt AutoOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	p, rep, err := pipeline.Auto(ctx, g, opt, s.cache)
	res := Result{
		Perm:      p,
		Algorithm: "AUTO",
		Stats:     rep.Stats,
		Report:    &rep,
		Elapsed:   time.Since(start),
	}
	if rep.Eigensolves > 0 {
		solve := rep.Solve
		res.Solve = &solve
	}
	return res, err
}

// Fiedler computes the Fiedler vector of the connected graph g with the
// session's eigensolver options, reporting the uniform solver statistics
// (λ2 in Stats.Lambda). Repeated calls on the same graph are served from
// the session's artifact cache — the eigensolve runs once.
//
// The vector returned is λ2's, unless λ3 lies within a few percent of λ2:
// then the default multilevel solver may return λ3's eigenvector instead
// (Stats.Lambda is the eigenvalue of the vector returned).
// SessionOptions.Spectral.Method = MethodLanczos selects the direct solver.
func (s *Session) Fiedler(ctx context.Context, g *Graph) ([]float64, SolveStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt := s.opt.Spectral
	if opt.Seed == 0 {
		opt.Seed = s.opt.Seed
	}
	ws := scratch.Get()
	defer scratch.Put(ws)
	if a := s.cache.WholeIfConnected(g, opt); a != nil {
		x, st, err := a.Fiedler(ctx, ws)
		if x != nil {
			// The memoized vector stays cache-owned; callers get a copy.
			x = append([]float64(nil), x...)
		}
		return x, st, err
	}
	// No cache, a caller-supplied operator, or unspecified disconnected
	// input: solve directly.
	return core.FiedlerConnectedWS(ctx, ws, g, opt)
}

// Intern resolves g by content against the session's cache: it returns the
// resident graph with g's content and true, so calls on the result reuse
// that graph's memoized artifacts, or records g as the resident instance
// and returns g and false. A server that parses every request into a fresh
// Graph interns it first, so repeated content shares one eigensolve. The
// content key lives in the cache's one LRU and is evicted with the graph.
// A session without a cache returns g and false.
func (s *Session) Intern(g *Graph) (*Graph, bool) {
	if s.cache == nil {
		return g, false
	}
	return s.cache.Intern(g)
}

// Reset drops the session's in-memory artifact cache, releasing every
// graph, subgraph and eigenvector it was pinning. Useful when a long-lived
// Session has finished with a working set of graphs and the memory should
// go back to the collector. The persistent store (SessionOptions.Store) is untouched:
// a reset session re-warms from it by content instead of re-solving.
func (s *Session) Reset() {
	if s.cache != nil {
		s.cache.Clear()
	}
}
