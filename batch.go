package envred

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/scratch"
)

// BatchOptions configures Session.OrderBatch. The zero value of every
// field defaults to the session's own configuration, so
// OrderBatch(ctx, graphs, BatchOptions{Algorithm: "RCM"}) behaves like a
// loop of Session.Order calls.
type BatchOptions struct {
	// Algorithm is the registered algorithm every item runs (see
	// Algorithms; case-insensitive, required).
	Algorithm string
	// Seed drives randomized pieces of every item (0 = the session seed).
	Seed int64
	// Spectral carries per-batch eigensolver options (zero value = the
	// session's).
	Spectral SpectralOptions
	// Workers bounds how many items are in flight at once across the
	// persistent batch worker pool (≤ 0 = GOMAXPROCS). Items are
	// independent; any worker count produces byte-identical results.
	Workers int
	// Results, when non-nil, is the result slice of a previous OrderBatch
	// call to recycle: slots (including each Result.Perm's capacity) are
	// reused instead of allocated, which is what makes the steady-state
	// batch loop allocation-free. Leave nil to allocate fresh storage.
	Results []BatchResult
}

// BatchResult is one item's outcome in an OrderBatch: the same Result a
// Session.Order call on that graph returns, or the error that item
// failed with. Result.Solve and Result.Info, when set, point at storage
// owned by this slot — they are overwritten if the slot is recycled
// through BatchOptions.Results.
type BatchResult struct {
	Result Result
	Err    error

	// Value backing for the fast path's Result.Solve/Result.Info, so the
	// steady-state loop never allocates them.
	solve SolveStats
	info  SpectralInfo
}

// orderBatch is the pooled run state of one OrderBatch call — the
// pipeline.BatchRunner the persistent batch workers drive. Holding the
// per-item OrderRequests in a reused slice keeps them off the heap: the
// Orderer interface receives *OrderRequest, which would otherwise escape
// a stack-allocated request on every item.
type orderBatch struct {
	s       *Session
	ctx     context.Context
	name    string
	seed    int64
	sopt    SpectralOptions
	graphs  []*Graph
	results []BatchResult
}

var orderBatchPool = sync.Pool{New: func() any { return new(orderBatch) }}

// OrderBatch pipelines many graphs through one algorithm, amortizing what
// per-call Order cannot: items run on a persistent worker pool whose
// workspaces stay warm across batches, per-item results land in recycled
// storage (BatchOptions.Results), and the cached-artifact SPECTRAL path
// skips every per-call allocation — the serving hot loop of the batch
// endpoint runs at zero allocations per item once warm (pinned by
// TestOrderBatchSteadyStateAllocs).
//
// Each item's outcome is byte-identical to a Session.Order call with the
// same options on the same graph — batching changes throughput, never
// results (pinned by TestOrderBatchMatchesOrder). Items are independent:
// one item's failure is reported in its own BatchResult.Err and the rest
// proceed. ctx cancellation interrupts in-flight items exactly as it
// interrupts Order; already-finished items keep their results.
//
// The returned slice is valid until the next OrderBatch call that
// recycles it; the caller owns it otherwise. A global error is returned
// only when the batch cannot start at all (unknown algorithm).
func (s *Session) OrderBatch(ctx context.Context, graphs []*Graph, opt BatchOptions) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	name := pipeline.Canonical(opt.Algorithm)
	if _, ok := pipeline.Lookup(name); !ok {
		return nil, fmt.Errorf("envred: unknown algorithm %q (registered: %v)", opt.Algorithm, Algorithms())
	}
	results := opt.Results
	if cap(results) >= len(graphs) {
		results = results[:len(graphs)]
	} else {
		results = make([]BatchResult, len(graphs))
	}
	seed := opt.Seed
	if seed == 0 {
		seed = s.opt.Seed
	}
	sopt := opt.Spectral
	if sopt == (SpectralOptions{}) {
		sopt = s.opt.Spectral
	}
	if sopt.Seed == 0 {
		sopt.Seed = seed
	}
	b := orderBatchPool.Get().(*orderBatch)
	b.s, b.ctx, b.name, b.seed, b.sopt = s, ctx, name, seed, sopt
	b.graphs, b.results = graphs, results
	pipeline.RunBatch(opt.Workers, len(graphs), b)
	*b = orderBatch{}
	orderBatchPool.Put(b)
	return results, nil
}

// RunItem orders item i (pipeline.BatchRunner). The calling worker's
// workspace serves the whole item: orderer scratch and the envelope scan.
func (b *orderBatch) RunItem(i int, ws *scratch.Workspace) {
	g := b.graphs[i]
	slot := &b.results[i]
	if b.name == pipeline.AlgSpectral && g.N() >= 3 {
		if art := b.s.cache.WholeIfConnected(g, b.sopt); art != nil && b.runFast(slot, g, art, ws) {
			return
		}
	}
	// Generic path: exactly Session.Do with the batch's options — cold
	// artifacts, disconnected graphs, non-SPECTRAL algorithms and failed
	// solves all land here and stay bit-for-bit Do-identical.
	res, err := b.s.Do(b.ctx, g, b.name, OrderRequest{Seed: b.seed, Spectral: b.sopt, Workspace: ws})
	slot.Result, slot.Err = res, err
}

// ItemPanicked implements pipeline.BatchPanicHandler: a panic while
// running item i (outside the orderer call, which Session.Do already
// guards) becomes that item's error, leaving the other items and the
// persistent pool workers untouched.
func (b *orderBatch) ItemPanicked(i int, err error) {
	b.results[i] = BatchResult{Err: err}
}

// runFast serves one item from the session's memoized whole-graph
// SPECTRAL artifacts without allocating: the ordering is copied into the
// slot's recycled Perm buffer, Solve/Info are backed by slot-owned
// values, and the envelope statistics come from the artifact's own memo
// (SpectralStats) instead of a fresh O(n+nnz) scan per request. The
// memoized ordering was validated when it entered the memo (fresh solves
// by construction, store hits by the tier-2 probe's Check), so the
// defensive re-validation Session.Do applies to arbitrary registered
// orderers is not repeated per item. Returns false — leaving the slot
// untouched — when the memoized solve errored, deferring to the generic
// path for the exact Do error shape.
func (b *orderBatch) runFast(slot *BatchResult, g *Graph, art *Artifacts, ws *scratch.Workspace) bool {
	start := time.Now()
	o, stats, reversed, st, err := art.SpectralStats(b.ctx, ws)
	if err != nil {
		return false
	}
	p := append(slot.Result.Perm[:0], o...)
	slot.solve = st
	pipeline.FillConnectedInfo(&slot.info, st, reversed)
	slot.Result = Result{
		Perm:      p,
		Algorithm: b.name,
		Stats:     stats,
		Solve:     &slot.solve,
		Info:      &slot.info,
		Elapsed:   time.Since(start),
	}
	slot.Err = nil
	return true
}
