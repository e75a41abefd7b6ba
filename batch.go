package envred

import (
	"context"
	"fmt"
	"sync"

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
// failed with. Result.Solve, when set, may point at storage owned by this
// slot — it is overwritten if the slot is recycled through
// BatchOptions.Results.
type BatchResult struct {
	Result Result
	Err    error

	// Value backing for a warm item's Result.Solve, so the steady-state
	// loop never allocates it.
	solve SolveStats
}

// orderBatch is the pooled run state of one OrderBatch call — the
// pipeline.BatchRunner the persistent batch workers drive.
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
// storage (BatchOptions.Results), and a warm item of a built-in is copied
// out of the session's answer memo (see Do) without a per-call
// allocation — the serving hot loop of the batch endpoint runs at zero
// allocations per item once warm (pinned by
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

// RunItem orders item i (pipeline.BatchRunner): exactly Session.Do with
// the batch's options, into the item's slot. The calling worker's
// workspace serves the whole item, and a warm item is copied out of the
// session's answer memo into the slot's recycled storage.
func (b *orderBatch) RunItem(i int, ws *scratch.Workspace) {
	slot := &b.results[i]
	req := OrderRequest{Seed: b.seed, Spectral: b.sopt, Workspace: ws}
	slot.Err = b.s.do(b.ctx, b.graphs[i], b.name, req, &slot.Result, &slot.solve)
}

// ItemPanicked implements pipeline.BatchPanicHandler: a panic while
// running item i (outside the orderer call, which Session.Do already
// guards) becomes that item's error, leaving the other items and the
// persistent pool workers untouched.
func (b *orderBatch) ItemPanicked(i int, err error) {
	b.results[i] = BatchResult{Err: err}
}
