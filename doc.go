// Package envred (import path "repro") is a Go implementation of the
// spectral envelope-reduction algorithm of Barnard, Pothen & Simon
// (Supercomputing '93): reordering a sparse symmetric matrix to shrink its
// envelope (profile/variable-band) by sorting the components of a second
// Laplacian eigenvector (Fiedler vector).
//
// The package bundles everything the paper's evaluation needs, built from
// scratch on the standard library:
//
//   - a CSR graph substrate with BFS level structures and pseudo-peripheral
//     vertex location,
//   - a unified eigensolver engine (internal/solver): one Solver interface
//     with uniform statistics (matvecs, RQI iterations, Jacobi sweeps,
//     hierarchy depth, residual, convergence) implemented by a Lanczos
//     solver, the multilevel Fiedler scheme of §3 (maximal-independent-set
//     contraction, interpolation, an LOBPCG minimization step, Rayleigh
//     Quotient Iteration with MINRES inner solves) and standalone RQI
//     refinement,
//   - the spectral ordering itself (Algorithm 1) plus the spectral–Sloan
//     hybrid the paper's closing section anticipates,
//   - the classical competitors: reverse Cuthill–McKee, Gibbs–Poole–
//     Stockmeyer, Gibbs–King, King and Sloan; the last three number
//     vertices off one indexed priority queue (internal/order) that
//     updates a key in place instead of pushing a fresh entry,
//   - envelope parameter computation (size, work, bandwidth, 1-sum, 2-sum,
//     wavefront), envelope Cholesky and root-free LDLᵀ factorization with
//     solves, IC(0) incomplete factorization and preconditioned CG,
//   - a value-weighted variant of the spectral ordering for matrices with
//     numerical entries,
//   - Matrix Market and Harwell–Boeing I/O (internal/mm: a coordinate
//     reader that splits and parses entry lines in place, allocating
//     nothing per line, and a Harwell–Boeing reader that bounds what it
//     allocates by what the input holds), spy-plot rendering, and
//     deterministic generators reproducing the paper's 18 test problems by
//     size and topology class,
//   - a parallel portfolio ordering engine (Auto) that decomposes the
//     graph into connected components, races a configurable portfolio of
//     registered algorithms per component on a bounded worker pool, keeps
//     the smallest-envelope candidate per component and stitches the
//     winners into one deterministic global permutation,
//   - a context-first ordering service: a pluggable Orderer registry
//     (Register, Lookup, Algorithms) that every built-in self-registers
//     into and user algorithms join at runtime, and a reusable,
//     goroutine-safe Session that owns per-graph artifact caches and the
//     scratch/solver/SpMV worker pools across calls.
//
// # Quick start
//
//	g := envred.Grid(40, 30)                       // a 5-point mesh
//	sess := envred.NewSession(envred.SessionOptions{})
//	res, err := sess.Order(ctx, g, envred.AlgSpectral)
//	if err != nil { ... }
//	fmt.Println(res.Stats.Esize, res.Stats.Bandwidth, res.Info.Lambda2)
//
// # The ordering service: Session and the Orderer registry
//
// The service surface is a Session — long-lived, goroutine-safe, context-
// first. It owns a per-graph artifact cache (component decomposition,
// extracted subgraphs, Fiedler eigensolves, peripheral roots and pseudo-
// diameter pairs; LRU-bounded by SessionOptions.CacheGraphs), so repeated
// calls on the same graph pay for the expensive precomputations once:
//
//	sess := envred.NewSession(envred.SessionOptions{Seed: 1})
//	res, err := sess.Order(ctx, g, envred.AlgSpectral)  // any registered name
//	res, err = sess.Auto(ctx, g)                        // portfolio race
//	x, solve, err := sess.Fiedler(ctx, g)               // cached eigensolve
//
// Every method returns the uniform Result{Perm, Stats, Solve, Info,
// Algorithm, Elapsed, Report}. Cancelling ctx (or exceeding an Auto
// Budget) interrupts in-flight eigensolves at restart / V-cycle
// granularity and returns the typed *ErrCancelled carrying the best-so-far
// fallback eigenpair.
//
// Algorithms are pluggable: anything implementing Orderer can Register
// under a name, becoming callable via Session.Order and raceable in Auto
// portfolios with full access to the per-component artifact cache
// (OrderRequest.Artifacts) — see examples/customorderer for a user
// algorithm that outbids the built-ins on the components it specializes
// in. The built-ins (RCM, CM, GPS, GK, KING, SLOAN, SPECTRAL,
// SPECTRAL+SLOAN, WEIGHTED) self-register at init; Algorithms() lists the
// current set.
//
// Plugin code is isolated: an Orderer that panics fails its call, never
// the process. Session.Order returns a *PanicError carrying the panic
// value and stack, a panicking candidate inside an Auto portfolio loses
// only its own slot (the race completes with the surviving candidates and
// the report records the error), and a panicking batch item fails only
// its BatchResult. The worker pools behind all three survive and keep
// serving subsequent calls.
//
// Session is the only entry point to the spectral orderings and the
// portfolio engine. The stateless classical orderings (RCM, GPS, GK, King,
// Sloan, CuthillMcKee) are plain functions, byte-identical to
// Session.Order with the same algorithm (pinned by the session-equivalence
// golden test). Build a Session with SessionOptions{CacheGraphs: -1} for
// strictly stateless use.
//
// # Batch ordering
//
// Session.OrderBatch is the throughput path: many graphs, one registered
// algorithm, one call. Items are independent — each BatchResult carries
// either the uniform Result or that item's error — and every permutation
// is byte-identical to a sequential Session.Order on the same graph, seed
// and options (pinned by test). The win is amortization, not semantics:
// a persistent pool of workers (BatchOptions.Workers, default GOMAXPROCS)
// holds one scratch workspace each across the whole batch, cache-eligible
// spectral items run a fast path that reuses the Session's memoized
// eigensolves and envelope statistics, and recycling the Results slice
// across calls makes the warm steady state allocation-free (0 allocs/op,
// gated by BenchmarkOrderBatch in CI):
//
//	results, err := sess.OrderBatch(ctx, graphs, envred.BatchOptions{
//		Algorithm: envred.AlgSpectral,
//		Seed:      1,
//		Results:   results, // recycled from the previous batch, may be nil
//	})
//
// The same path serves POST /v1/order/batch on cmd/envorderd (one JSON
// document in, aligned results and per-item errors out), client.OrderBatch
// on the typed client, and envorder -batch on the CLI.
//
// # Persistent artifact store
//
// The Session's in-memory cache is tier 1: keyed by graph pointer, gone
// with the process. SessionOptions.Store binds a tier 2 that persists
// eigensolve artifacts by content — the canonical SHA-256 fingerprint of
// the graph's CSR arrays plus a digest of the spectral options — so a
// daemon restart comes up warm, replicas pool eigensolves through a shared
// directory, and a second CLI run on the same matrix performs zero solves:
//
//	st, err := envred.OpenStore("fs:///var/cache/envorder?max_bytes=1073741824")
//	if err != nil { ... }
//	defer st.Close()
//	sess := envred.NewSession(envred.SessionOptions{Store: st})
//
// The contract: the caller owns the store (open it, share it across
// sessions and processes, close it when every session is done); tier-1
// misses probe it before solving and successful solves are written back
// (a spectral ordering upgrades a Fiedler-only entry in place); failures
// degrade gracefully — a corrupt, truncated or unreadable entry is a miss
// plus a counted error (wrap it with NewCountedStore to observe traffic),
// the entry is dropped and rewritten by the re-solve, and no store outcome
// can ever change a result, only its cost. Stored vectors obey the same
// read-only memoized-slice contract as freshly solved ones. Backends are
// URL-dispatched (OpenStore, RegisterStoreDriver): the built-in fs://
// backend writes one file per entry with atomic write-then-rename and
// oldest-first size-bounded eviction (?max_bytes), and mem:// is an
// in-process LRU for tests and single-process pooling.
//
// For production use, wrap the backend in NewResilientStore: it adds
// per-operation timeouts, capped full-jitter retries of transient errors
// (ErrStoreTransient, or anything exposing Retryable() bool), and a
// circuit breaker that fast-fails traffic to a repeatedly-failing backend
// and probes it periodically until it recovers — ResilientStore.Stats
// reports the breaker state and counters. The chaos:// driver wraps any
// inner store URL with deterministic seeded fault injection for testing
// this layer (see internal/store for the knobs).
//
// # Choosing an ordering
//
// SPECTRAL is the paper's algorithm and the right default on a single
// large connected mesh. Prefer Session.Auto when the input may be
// disconnected, when no single algorithm is known to dominate the
// workload (the portfolio's winner varies by component topology), or when
// spare cores can hide the cost of racing the portfolio:
//
//	res, err := sess.AutoWith(ctx, g, envred.AutoOptions{Seed: 1})
//	if err != nil { ... }
//	fmt.Println(res.Stats.Esize, res.Report.Wins)  // per-algorithm wins
//
// Auto's envelope is never worse than the best portfolio member's on any
// component, and its result is byte-identical for a fixed seed regardless
// of AutoOptions.Parallelism — unless AutoOptions.Budget is set, which
// skips slow candidates by wall clock and so trades determinism for
// latency.
//
// Orderings use the new→old convention: p[k] is the original index of the
// row placed k-th. See the examples directory for complete programs and
// cmd/paperbench for the harness that regenerates every table and figure
// of the paper.
//
// # Solver architecture
//
// Every Fiedler computation goes through the unified engine in
// internal/solver: a Solver interface (Solve(ctx, ws, g) → vector,
// SolveStats, error) implemented by the direct Lanczos solver, the §3
// multilevel scheme and standalone RQI, with the context checked in the
// restart and V-cycle loops so cancellation and budgets interrupt real
// work. SpectralOptions.Method picks the scheme (MethodAuto runs the
// multilevel solver, with an LOBPCG minimization step before each level's
// RQI, at every size; MethodLanczos forces direct Lanczos), and every layer
// reports the same SolveStats record: SpectralInfo.Solve for the ordering
// entry points, AutoReport.Solve plus a per-spectral-candidate copy for
// the portfolio engine, and a matvecs column in the harness tables.
// Partial convergence is surfaced, not swallowed: a solver that runs out
// of budget returns its best vector with Converged=false and the residual
// quantifying the miss.
//
// The portfolio engine adds a per-component artifact cache on top: the
// Fiedler vector, the George–Liu pseudo-peripheral root and the GPS
// pseudo-diameter pair are each computed once per component and shared by
// every candidate that needs them, so racing SPECTRAL and SPECTRAL+SLOAN
// costs one eigensolve, not two. cmd/envorder's -stats json flag emits the
// whole record — envelope parameters, solver statistics, per-candidate
// portfolio results — as one machine-readable document.
//
// # Allocation-free hot paths
//
// The measurement and extraction layers have two call surfaces. The public
// functions here (Stats, Esize, Bandwidth, the ordering constructors) are
// convenience wrappers: each borrows a pooled workspace, so they are safe,
// concurrent and moderately fast, but pay pool traffic per call. The
// internal *Into / *WS variants (envelope.ComputeInto, envelope.EsizeInto,
// graph.SubgraphInto, order.RCMWS, core.SpectralWS,
// multilevel.FiedlerWS, ...) take an explicit scratch workspace and run
// with zero steady-state allocations; the parallel engine behind Auto
// checks one workspace out per worker and threads it through subgraph
// extraction, every portfolio algorithm and the fused envelope scoring of
// each candidate. The multilevel solver carves its whole hierarchy —
// coarse CSR arrays, domain maps, per-level operators, iterates and MINRES
// work vectors — out of the same arenas, so the V-cycle refinement
// (interpolate + smooth + RQI) runs at 0 allocs/op once warm.
//
// The Lanczos eigensolve — the hottest loop in the repository — follows
// the same discipline with its own workspace (lanczos.Work): the Krylov
// basis is a single contiguous row-major backing array (row j = basis
// vector j), reorthogonalization runs as blocked BLAS-2 kernels over it
// (linalg.OrthoMGS for the modified-Gram–Schmidt pass, linalg.GemvT /
// linalg.GemvSub for the classical refinement pass near breakdown), the
// α/β tridiagonal buffers and the Ritz extraction scratch are reused
// across restart cycles, and the operators fuse the three-term recurrence
// into the matvec (linalg.AxpyApplier). lanczos.FiedlerWS with a warm Work
// is 0 allocs/op per solve. The matvec itself is laplacian.ParallelOp:
// nonzero-balanced row blocks executed by a pool of persistent worker
// goroutines shared process-wide, engaged automatically above the
// laplacian.MinRowsPerWorker / MinNnzPerWorker thresholds or by explicit
// request, with the chosen fan-out reported as SolveStats.Workers through
// every layer. The operator
// also picks its storage layout per graph (laplacian.Auto/AutoFrom): above
// laplacian.SellMinRows rows it is repacked into a SELL-C-σ sliced-ELLPACK
// layout (laplacian.NewSell; rows degree-sorted within σ-windows, packed
// into 8-row column-major slices) whose branch-free inner loop carries
// eight independent accumulator chains where CSR's per-row loop has one;
// smaller graphs keep plain CSR, whose packing cost would not amortize.
// Every layout/parallel combination is bitwise-identical — selection is
// purely a speed decision. Builds with GOAMD64=v3 swap the innermost
// linalg kernels for FMA variants (see linalg.KernelISA).
//
// The workspace contract: a workspace must not be shared across goroutines,
// and buffers obtained from one are only valid until the matching release —
// never retain them or return them to callers. Results that outlive a call
// (permutations, extracted subgraphs held across pipeline stages, Fiedler
// vectors memoized in the artifact cache) are always freshly allocated or
// copied out. testing.AllocsPerRun guards in internal/envelope,
// internal/graph, internal/multilevel, internal/lanczos and
// internal/linalg pin the steady-state envelope scoring, subgraph
// extraction, V-cycle refinement, Lanczos solve and Ritz extraction paths
// at 0 allocs/op, and CI regenerates the BENCH_pipeline.json artifact and
// fails if those gates regress.
//
// These prose contracts are also enforced statically. internal/analysis
// implements five project-specific analyzers — wsretain (workspace
// lifetime), ctxflow (context threading), errsentinel (errors.Is over
// ==/!= and %w wrapping), noalloc and readonly (the //envlint:noalloc and
// //envlint:readonly function markers carried by the kernels above) — and
// cmd/envlint runs them as a multichecker over every build variant in CI.
// A deviation from any contract in this documentation fails the build
// rather than waiting for a reviewer; deliberate exceptions carry an
// //envlint:ignore directive with a mandatory reason.
package envred
