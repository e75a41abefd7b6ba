package pipeline

import (
	"context"
	"fmt"
	"sort"
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

// Orderer is a pluggable ordering algorithm: anything that can produce a
// permutation of a graph. All built-ins (RCM, CM, GPS, GK, King, Sloan,
// Spectral, Spectral+Sloan, Weighted) implement it and self-register into
// the package registry; user implementations registered with Register are
// callable by name through Order (Session.Order) and race in Auto's
// portfolio on equal footing, per-component artifact cache included.
//
// The contract has one calling mode: g is always one connected component
// of the graph the engine was given, of at least 2 vertices (at least 3
// inside Auto, which places smaller components itself; Order places only
// single vertices). The engine splits the input, calls the Orderer once per
// component and concatenates the component orderings largest first.
// req.Artifacts is always set: the memoized artifact cache describing
// exactly the g being passed — use it for the Fiedler vector, the
// pseudo-peripheral root or the pseudo-diameter pair instead of
// recomputing them. req.Workspace is always set too: the calling worker's
// scratch.
//
// Implementations must be deterministic for a fixed (graph, request) — the
// engine's reproducibility contract extends to them — must not retain
// req.Workspace or any buffer from it past the call, must treat slices
// obtained from req.Artifacts (the Fiedler vector, the spectral ordering)
// as read-only — they are the memoized copies every other candidate and
// later cached call reads — and must honor ctx: return promptly (with
// ctx.Err() or a *lanczos.ErrCancelled) once it is cancelled. Only
// Result.Perm and optionally Result.Solve and Result.Reversed need to be
// filled in; the engine computes the rest. A returned Result.Solve is the
// candidate's solve record: Auto folds the first one per component into
// its report (see Report.Eigensolves).
//
// A panic in an implementation fails the call, not the process: every
// engine entry point (Order, the portfolio race, batch workers) recovers
// it into a *PanicError carrying the value and stack.
type Orderer interface {
	Order(ctx context.Context, g *graph.Graph, req *OrderRequest) (Result, error)
}

// OrdererFunc adapts a plain function to the Orderer interface.
type OrdererFunc func(ctx context.Context, g *graph.Graph, req *OrderRequest) (Result, error)

// Order implements Orderer.
func (f OrdererFunc) Order(ctx context.Context, g *graph.Graph, req *OrderRequest) (Result, error) {
	return f(ctx, g, req)
}

// OrderRequest carries everything an Orderer may need beyond the graph.
// The zero value is valid: built-ins fall back to default options.
type OrderRequest struct {
	// Algorithm is the canonical registry name the orderer was invoked
	// under (useful for one Orderer registered under several names).
	Algorithm string
	// Seed drives randomized pieces; fixed seed ⇒ reproducible run.
	Seed int64
	// Spectral carries the eigensolver options for spectral orderers. The
	// engine defaults its Seed to OrderRequest.Seed when zero.
	Spectral core.Options
	// Weight is an optional symmetric positive edge-weight function (by the
	// labels of g as passed). The WEIGHTED built-in requires it; the engine
	// relabels the caller's weight function per component before invoking
	// an Orderer.
	Weight func(u, v int) float64
	// Artifacts is the memoized artifact cache of the component being
	// ordered. The engine sets it on every call (see Orderer); a caller of
	// Order or Session.Do leaves it nil.
	Artifacts *Artifacts
	// Workspace is the calling worker's scratch. The engine sets it on every
	// call; a caller of Order or Session.Do may pass its own, and otherwise
	// the engine checks one out of the shared pool for the call.
	Workspace *scratch.Workspace
}

// Result is the uniform outcome of one ordering run — what Session.Order,
// Session.Auto and every registered Orderer trade in.
type Result struct {
	// Perm is the computed ordering (new→old).
	Perm perm.Perm
	// Algorithm is the canonical name of the algorithm that produced Perm
	// (for Auto: the portfolio engine's name, with per-component winners in
	// Report).
	Algorithm string
	// Stats are the envelope parameters of Perm on the input graph.
	Stats envelope.Stats
	// Solve is the answer's one solve record: the eigensolver statistics
	// behind the run, λ2 in Solve.Lambda (nil for purely combinatorial
	// orderings). On a disconnected graph the first component with a
	// record gives the estimates, and the counters are summed (see
	// foldDiagnostics).
	Solve *solver.Stats
	// Reversed is true when the nonincreasing sort of the Fiedler vector
	// won Algorithm 1's envelope comparison, on the first component with a
	// solve record (a spectral Order; Auto leaves it false).
	Reversed bool
	// Components is the number of connected components of the input graph.
	Components int
	// Elapsed is the wall-clock ordering time.
	Elapsed time.Duration
	// Report is the full portfolio report when the run came from the Auto
	// engine; nil otherwise.
	Report *Report
}

// Registry ------------------------------------------------------------------

var (
	regMu    sync.RWMutex
	registry = map[string]Orderer{}
)

// Canonical normalizes an algorithm name to its registry form (upper-case,
// surrounding space trimmed): lookups and portfolio specs are
// case-insensitive.
func Canonical(name string) string {
	return strings.ToUpper(strings.TrimSpace(name))
}

// Register adds an Orderer under the given (case-insensitive) name. It
// errors on an empty name, a nil Orderer, or a name already taken — the
// registry is append-only so a portfolio spec can never silently change
// meaning. Safe for concurrent use.
func Register(name string, o Orderer) error {
	key := Canonical(name)
	if key == "" {
		return fmt.Errorf("pipeline: Register: empty algorithm name")
	}
	if o == nil {
		return fmt.Errorf("pipeline: Register %q: nil Orderer", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[key]; dup {
		return fmt.Errorf("pipeline: Register %q: already registered", key)
	}
	registry[key] = o
	return nil
}

// MustRegister is Register that panics on error — for package init blocks.
func MustRegister(name string, o Orderer) {
	if err := Register(name, o); err != nil {
		panic(err)
	}
}

// Lookup returns the Orderer registered under name (case-insensitive).
func Lookup(name string) (Orderer, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	o, ok := registry[Canonical(name)]
	return o, ok
}

// Algorithms returns the sorted canonical names of every registered
// Orderer — built-ins and user registrations alike.
func Algorithms() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
