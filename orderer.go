package envred

import (
	"repro/internal/lanczos"
	"repro/internal/pipeline"
	"repro/internal/scratch"
)

// Orderer is a pluggable ordering algorithm — the extension point of the
// ordering service. Implementations registered with Register become
// callable by name through Session.Order and race in Auto's per-component
// portfolio on equal footing with the built-ins, shared artifact cache
// included. See the pipeline.Orderer contract: in Auto's portfolio the
// graph is one connected component, through Session.Order it is the
// caller's whole (possibly disconnected) input, and in either mode
// OrderRequest.Artifacts, when non-nil, is the memoized artifact cache for
// exactly that graph. Implementations must be deterministic for a fixed
// (graph, request), must not retain OrderRequest.Workspace, and must honor
// ctx cancellation.
type Orderer = pipeline.Orderer

// OrdererFunc adapts a plain function to the Orderer interface.
type OrdererFunc = pipeline.OrdererFunc

// OrderRequest carries the per-call inputs handed to an Orderer: seed,
// eigensolver options, optional edge weights, the portfolio engine's
// per-component artifact cache and the calling worker's scratch workspace.
type OrderRequest = pipeline.OrderRequest

// Result is the uniform outcome of an ordering run — returned by
// Session.Order, Session.Auto and every registered Orderer: the
// permutation, the algorithm name, the envelope parameters, the
// eigensolver statistics and spectral diagnostics when applicable, the
// wall-clock time, and (for Auto) the full portfolio report.
type Result = pipeline.Result

// Artifacts is the per-component artifact cache the portfolio engine
// shares among racing candidates: the Fiedler eigensolve, the
// pseudo-peripheral root and the pseudo-diameter pair, each computed at
// most once per component. Registered Orderers reach it via
// OrderRequest.Artifacts; slices obtained from it (the Fiedler vector,
// the spectral ordering) are the shared memoized copies and must be
// treated as read-only, and its Operator() must not be driven by user
// orderers (one matvec at a time, possibly mid-eigensolve elsewhere).
type Artifacts = pipeline.Artifacts

// DefaultCacheGraphs is the default capacity of a Session's per-graph
// artifact cache (SessionOptions.CacheGraphs = 0).
const DefaultCacheGraphs = pipeline.DefaultCacheGraphs

// Workspace is the reusable per-worker scratch workspace threaded through
// the hot paths (see OrderRequest.Workspace). Not safe for concurrent use;
// buffers checked out of one must not be retained.
type Workspace = scratch.Workspace

// PanicError is the error a panic in pluggable code is converted to: a
// registered Orderer (or BatchRunner item, or daemon job) that panics
// fails its own call/item/job with a *PanicError carrying the panic value
// and stack — it never kills the worker pool, the batch barrier or a
// daemon hosting the Session. See the Orderer contract.
type PanicError = pipeline.PanicError

// ErrCancelled is the typed error an interrupted run returns when its
// context is cancelled or its deadline (e.g. AutoOptions.Budget) expires
// mid-eigensolve: it wraps the context error (errors.Is sees
// context.Canceled / context.DeadlineExceeded through it) and carries the
// best-so-far fallback eigenpair, so callers can still order with the
// partial result instead of losing the work already spent.
type ErrCancelled = lanczos.ErrCancelled

// Register adds an Orderer to the process-wide algorithm registry under
// the given case-insensitive name, making it available to Session.Order
// and to Auto portfolios. It errors on an empty name, a nil Orderer or a
// name already taken (the registry is append-only). Safe for concurrent
// use.
func Register(name string, o Orderer) error { return pipeline.Register(name, o) }

// MustRegister is Register that panics on error — for package init blocks.
func MustRegister(name string, o Orderer) { pipeline.MustRegister(name, o) }

// Lookup returns the Orderer registered under name (case-insensitive).
func Lookup(name string) (Orderer, bool) { return pipeline.Lookup(name) }

// Algorithms returns the sorted canonical names of every registered
// ordering algorithm — the built-ins plus user registrations.
func Algorithms() []string { return pipeline.Algorithms() }
