package laplacian

import (
	"runtime"
	"sync"

	"repro/internal/graph"
)

// Worker-count heuristics for the auto path (NewParallelOp with
// workers ≤ 0): a graph gets one worker per MinRowsPerWorker rows OR per
// MinNnzPerWorker stored nonzeros, whichever grants more — the nnz term
// keeps small-but-dense graphs from serializing on the row count alone.
// Explicit worker requests bypass both (see NewParallelOp).
const (
	MinRowsPerWorker = 4096
	MinNnzPerWorker  = 16384
)

// ParallelOp is the Laplacian operator with the matrix–vector product
// parallelized across row blocks. The paper's §1 argues this is the
// spectral algorithm's structural advantage over the BFS-based orderings:
// its kernel is a sparse matvec, which "not only vectorizes easily, but
// also can be implemented in parallel with little effort". ParallelOp is
// that remark made concrete; the ablation benchmark in parallel_test.go
// (BenchmarkSpMV) measures the speedup.
//
// Rows are statically partitioned into blocks balanced by nonzeros. Each
// worker writes a disjoint slice of y, so no synchronization beyond the
// final barrier is needed, and results are bitwise identical to the serial
// operator for any worker count: each row is reduced in the same order,
// rows are merely distributed.
//
// Block execution rides a package-level pool of persistent goroutines
// (see spmvPool): Apply publishes its operands, hands the helper blocks to
// the parked workers and computes block 0 itself — no per-Apply goroutine
// spawning, no closure allocation.
//
// A ParallelOp is NOT safe for concurrent Apply/ApplyAxpy calls on the
// same instance: the per-call operands are published through the operator
// (and the barrier WaitGroup is per-instance), so each instance supports
// one matvec at a time. Distinct instances compose freely — they share
// only the worker pool, which is what the concurrent-solves race test
// exercises. Give each concurrent solver its own ParallelOp (wrapping the
// same Op is fine).
type ParallelOp struct {
	op      *Op
	sell    *Sell // non-nil: slice-layout kernel, starts index slices
	workers int
	starts  []int // worker w owns rows (or slices) starts[w]:starts[w+1]
	wg      sync.WaitGroup

	// Per-Apply operands published to the pool workers. Written before the
	// task sends, read by workers, cleared after wg.Wait — the channel send
	// and WaitGroup edges order the accesses.
	x, y, qprev []float64
	beta        float64
}

// spmvPool is the shared pool of persistent SpMV workers: GOMAXPROCS
// goroutines started on first parallel Apply, each parked on the task
// channel. Every ParallelOp in the process shares it, so concurrent solves
// never oversubscribe the machine and an operator's lifetime never leaks a
// goroutine. Tasks are plain (op, block) values — channel sends copy them
// without heap allocation.
var spmvPool struct {
	once  sync.Once
	tasks chan spmvTask
}

type spmvTask struct {
	op    *ParallelOp
	block int
}

func poolStart() {
	n := runtime.GOMAXPROCS(0)
	spmvPool.tasks = make(chan spmvTask, 8*n)
	for i := 0; i < n; i++ {
		go func() {
			for t := range spmvPool.tasks {
				t.op.runBlock(t.block)
				t.op.wg.Done()
			}
		}()
	}
}

// NewParallelOp wraps an Op with a parallel Apply using the given number of
// workers. A positive workers count is an explicit request and is honored
// (clamped only to the row count), including on graphs below the heuristic
// thresholds — small-but-dense cases used to be silently serialized.
// workers ≤ 0 selects automatically: GOMAXPROCS capped by the
// MinRowsPerWorker/MinNnzPerWorker heuristics, falling back to a single
// worker when goroutine fan-out would cost more than it saves.
func NewParallelOp(op *Op, workers int) *ParallelOp {
	n := op.Dim()
	if workers <= 0 {
		workers = AutoWorkers(n, len(op.G.Adj))
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	// Balance by nonzeros, not rows: split the adjacency array evenly.
	starts := make([]int, workers+1)
	total := len(op.G.Adj)
	row := 0
	for w := 1; w < workers; w++ {
		target := total * w / workers
		for row < n && int(op.G.Xadj[row]) < target {
			row++
		}
		starts[w] = row
	}
	starts[workers] = n
	return &ParallelOp{op: op, workers: workers, starts: starts}
}

// NewParallelSell wraps a Sell slice operator with a parallel Apply: the
// partition unit is the slice (never splitting a slice's eight lanes),
// balanced by stored entries exactly as NewParallelOp balances rows by
// nonzeros. The semantics of workers match NewParallelOp: positive counts
// are explicit requests clamped only to the slice count, workers ≤ 0
// selects by the AutoWorkers heuristic. The rest rows (final partial
// slice) ride with the last block. Bitwise identity to the serial Sell —
// and so to the CSR Op — holds for any worker count: slices are merely
// distributed, never re-reduced.
func NewParallelSell(s *Sell, workers int) *ParallelOp {
	units := len(s.kmin)
	if workers <= 0 {
		workers = AutoWorkers(s.Dim(), s.nnz)
	}
	if workers > units {
		workers = units
	}
	if workers < 1 {
		workers = 1
	}
	starts := make([]int, workers+1)
	slice := 0
	done := 0
	for w := 1; w < workers; w++ {
		target := s.nnz * w / workers
		for slice < units && done < target {
			done += s.sliceEntries(slice)
			slice++
		}
		starts[w] = slice
	}
	starts[workers] = units
	return &ParallelOp{op: s.op, sell: s, workers: workers, starts: starts}
}

// AutoWorkers is the one worker-count heuristic every layer shares: the
// number of SpMV workers the auto path engages for an operator with the
// given row and stored-nonzero counts — GOMAXPROCS capped by the
// MinRowsPerWorker/MinNnzPerWorker thresholds (one worker per
// MinRowsPerWorker rows OR MinNnzPerWorker nonzeros, whichever grants
// more), never below one. NewParallelOp/NewParallelSell auto paths,
// pipeline solve-concurrency accounting and the service all derive from
// this single function instead of re-implementing the thresholds.
func AutoWorkers(rows, nnz int) int {
	w := runtime.GOMAXPROCS(0)
	byRows := rows / MinRowsPerWorker
	byNnz := nnz / MinNnzPerWorker
	maxW := byRows
	if byNnz > maxW {
		maxW = byNnz
	}
	if w > maxW {
		w = maxW
	}
	if w > rows {
		w = rows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Dim returns the number of vertices.
func (p *ParallelOp) Dim() int { return p.op.Dim() }

// Workers returns the number of row blocks the matvec runs across.
func (p *ParallelOp) Workers() int { return p.workers }

// runBlock computes this block's rows of y = L·x (minus beta·qprev when
// qprev is set) from the published operands.
func (p *ParallelOp) runBlock(b int) {
	lo, hi := p.starts[b], p.starts[b+1]
	switch {
	case p.sell == nil && p.qprev == nil:
		p.op.applyRange(p.x, p.y, lo, hi)
	case p.sell == nil:
		p.op.applyAxpyRange(p.x, p.y, p.beta, p.qprev, lo, hi)
	case p.qprev == nil:
		p.sell.applySlices(p.x, p.y, lo, hi)
		if hi == len(p.sell.kmin) {
			p.sell.applyRest(p.x, p.y)
		}
	default:
		p.sell.applyAxpySlices(p.x, p.y, p.beta, p.qprev, lo, hi)
		if hi == len(p.sell.kmin) {
			p.sell.applyAxpyRest(p.x, p.y, p.beta, p.qprev)
		}
	}
}

// dispatch publishes the operands and fans the helper blocks out to the
// persistent pool; the calling goroutine computes block 0.
func (p *ParallelOp) dispatch(x, y []float64, beta float64, qprev []float64) {
	p.x, p.y, p.beta, p.qprev = x, y, beta, qprev
	spmvPool.once.Do(poolStart)
	p.wg.Add(p.workers - 1)
	for b := 1; b < p.workers; b++ {
		spmvPool.tasks <- spmvTask{p, b}
	}
	p.runBlock(0)
	p.wg.Wait()
	p.x, p.y, p.qprev = nil, nil, nil
}

// Apply computes y = L·x using all workers.
func (p *ParallelOp) Apply(x, y []float64) {
	if p.workers == 1 {
		if p.sell != nil {
			p.sell.Apply(x, y)
		} else {
			p.op.Apply(x, y)
		}
		return
	}
	p.dispatch(x, y, 0, nil)
}

// ApplyAxpy computes y = L·x − beta·qprev fused into the same parallel
// pass — the three-term-recurrence form the Lanczos engine consumes (see
// linalg.AxpyApplier).
func (p *ParallelOp) ApplyAxpy(x, y []float64, beta float64, qprev []float64) {
	if p.workers == 1 {
		if p.sell != nil {
			p.sell.ApplyAxpy(x, y, beta, qprev)
		} else {
			p.op.ApplyAxpy(x, y, beta, qprev)
		}
		return
	}
	p.dispatch(x, y, beta, qprev)
}

// RayleighQuotient delegates to the serial implementation (it is called
// once per RQI step, not in the inner loop).
func (p *ParallelOp) RayleighQuotient(x []float64) float64 {
	return p.op.RayleighQuotient(x)
}

// GershgorinBound delegates to the serial implementation.
func (p *ParallelOp) GershgorinBound() float64 { return p.op.GershgorinBound() }

// Interface is the operator surface the eigensolver stack needs: the matvec
// (plain and fused with the Lanczos recurrence), the two Laplacian-specific
// queries and the worker count behind SolveStats.Workers. Op, ParallelOp
// and Weighted all satisfy it.
type Interface interface {
	Dim() int
	Apply(x, y []float64)
	ApplyAxpy(x, y []float64, beta float64, z []float64)
	RayleighQuotient(x []float64) float64
	GershgorinBound() float64
	Workers() int
}

var (
	_ Interface = (*Op)(nil)
	_ Interface = (*ParallelOp)(nil)
	_ Interface = (*Weighted)(nil)
)

// Auto returns the Laplacian of g in the layout and parallel shape the
// heuristics select: the SELL-C-σ slice layout above SellMinRows rows
// (its packing pass amortizes across an eigensolve's many matvecs),
// plain CSR below, with the matvec parallelized when the graph is large
// enough to profit (AutoWorkers falls back to one worker below its
// thresholds). Every layout/parallel combination is bitwise-identical —
// selection is purely a speed decision.
func Auto(g *graph.Graph) Interface {
	return AutoFrom(g, make([]float64, g.N()))
}

// AutoFrom is Auto with a caller-provided degree buffer (see NewFrom).
func AutoFrom(g *graph.Graph, deg []float64) Interface {
	op := NewFrom(g, deg)
	if g.N() >= SellMinRows {
		return NewParallelSell(NewSell(op), 0)
	}
	return NewParallelOp(op, 0)
}
