package laplacian

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
)

func TestParallelMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		g := graph.Grid(120, 110) // big enough to engage multiple workers
		op := New(g)
		pop := NewParallelOp(op, workers)
		if pop.Dim() != g.N() {
			t.Fatalf("dim mismatch")
		}
		n := g.N()
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(i) * 0.37)
		}
		y1 := make([]float64, n)
		y2 := make([]float64, n)
		op.Apply(x, y1)
		pop.Apply(x, y2)
		for i := range y1 {
			if y1[i] != y2[i] {
				t.Fatalf("workers=%d: mismatch at %d: %v vs %v", workers, i, y1[i], y2[i])
			}
		}
	}
}

// TestParallelPropertyApplyMatchesSerial is the satellite property test:
// on a suite of random graphs, every worker count 1..8 (all through the
// persistent pool) reproduces the serial Apply and ApplyAxpy bitwise, and
// the row partition covers all rows disjointly.
func TestParallelPropertyApplyMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		n := 500 + int(seed)*700
		g := graph.Random(n, 3*n, seed)
		op := New(g)
		x := make([]float64, n)
		q := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(i)*0.61 + float64(seed))
			q[i] = math.Cos(float64(i) * 0.23)
		}
		want := make([]float64, n)
		wantAxpy := make([]float64, n)
		op.Apply(x, want)
		op.ApplyAxpy(x, wantAxpy, 0.75, q)
		for workers := 1; workers <= 8; workers++ {
			pop := NewParallelOp(op, workers)
			if pop.Workers() != workers {
				t.Fatalf("seed %d: explicit request for %d workers got %d", seed, workers, pop.Workers())
			}
			// Partition properties: starts from 0 to n, monotone — blocks
			// disjoint and jointly exhaustive.
			if pop.starts[0] != 0 || pop.starts[workers] != n {
				t.Fatalf("seed %d workers %d: partition endpoints %v", seed, workers, pop.starts)
			}
			for w := 1; w <= workers; w++ {
				if pop.starts[w] < pop.starts[w-1] {
					t.Fatalf("seed %d workers %d: partition not monotone: %v", seed, workers, pop.starts)
				}
			}
			got := make([]float64, n)
			pop.Apply(x, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d workers %d: Apply mismatch at row %d: %v vs %v",
						seed, workers, i, got[i], want[i])
				}
			}
			pop.ApplyAxpy(x, got, 0.75, q)
			for i := range wantAxpy {
				if got[i] != wantAxpy[i] {
					t.Fatalf("seed %d workers %d: ApplyAxpy mismatch at row %d: %v vs %v",
						seed, workers, i, got[i], wantAxpy[i])
				}
			}
		}
	}
}

// TestParallelExplicitWorkersHonored pins the satellite fix: an explicit
// workers request is honored even on graphs far below the
// rows-per-worker heuristic (previously silently serialized), clamped only
// by the row count; the auto path (workers ≤ 0) keeps its fallback.
func TestParallelExplicitWorkersHonored(t *testing.T) {
	g := graph.Grid(10, 10) // 100 rows — well under MinRowsPerWorker
	pop := NewParallelOp(New(g), 8)
	if pop.Workers() != 8 {
		t.Fatalf("explicit 8 workers on a small graph got %d", pop.Workers())
	}
	x := make([]float64, 100)
	y := make([]float64, 100)
	x[5] = 1
	pop.Apply(x, y)
	if y[5] == 0 {
		t.Fatal("apply did nothing")
	}
	// More workers than rows clamps to the row count.
	tiny := graph.Path(3)
	if w := NewParallelOp(New(tiny), 8).Workers(); w != 3 {
		t.Fatalf("8 workers on P3 got %d, want 3", w)
	}
	// The auto path still falls back to one worker below the thresholds.
	if w := NewParallelOp(New(g), 0).Workers(); w != 1 {
		t.Fatalf("auto on a small graph got %d workers, want 1", w)
	}
}

// TestParallelAutoNnzHeuristic checks the auto path's nonzero term: a
// small-but-dense graph (few rows, many nonzeros) may parallelize even
// though its row count alone would serialize it.
func TestParallelAutoNnzHeuristic(t *testing.T) {
	g := graph.Complete(256) // 256 rows (well under MinRowsPerWorker), 65 280 stored nonzeros
	pop := NewParallelOp(New(g), 0)
	want := len(g.Adj) / MinNnzPerWorker
	if maxp := runtime.GOMAXPROCS(0); want > maxp {
		want = maxp
	}
	if want < 1 {
		want = 1
	}
	if pop.Workers() != want {
		t.Fatalf("auto on K256 got %d workers, want %d", pop.Workers(), want)
	}
}

// TestParallelConcurrentSolvesSharePool drives many concurrent operators
// through the shared persistent pool at once — the -race job's coverage
// that per-op operand publication and the pool's task channel are properly
// synchronized.
func TestParallelConcurrentSolvesSharePool(t *testing.T) {
	g := graph.Grid(90, 90)
	op := New(g)
	n := g.N()
	x := make([]float64, n)
	q := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.11)
		q[i] = float64(i%7) - 3
	}
	want := make([]float64, n)
	op.ApplyAxpy(x, want, 1.25, q)

	var wg sync.WaitGroup
	for solver := 0; solver < 6; solver++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			pop := NewParallelOp(op, workers)
			y := make([]float64, n)
			for rep := 0; rep < 20; rep++ {
				pop.ApplyAxpy(x, y, 1.25, q)
				for i := range want {
					if y[i] != want[i] {
						t.Errorf("workers=%d rep=%d: mismatch at %d", workers, rep, i)
						return
					}
				}
			}
		}(2 + solver%4)
	}
	wg.Wait()
}

func TestParallelPartitionCoversAllRows(t *testing.T) {
	g := graph.Random(50000, 100000, 1)
	pop := NewParallelOp(New(g), 6)
	if pop.starts[0] != 0 || pop.starts[len(pop.starts)-1] != g.N() {
		t.Fatalf("partition endpoints wrong: %v", pop.starts)
	}
	for w := 1; w < len(pop.starts); w++ {
		if pop.starts[w] < pop.starts[w-1] {
			t.Fatalf("partition not monotone: %v", pop.starts)
		}
	}
}

func TestParallelDelegates(t *testing.T) {
	g := graph.Grid(60, 60)
	op := New(g)
	pop := NewParallelOp(op, 2)
	x := make([]float64, g.N())
	for i := range x {
		x[i] = float64(i % 11)
	}
	if pop.RayleighQuotient(x) != op.RayleighQuotient(x) {
		t.Fatal("RayleighQuotient differs")
	}
	if pop.GershgorinBound() != op.GershgorinBound() {
		t.Fatal("GershgorinBound differs")
	}
}

// BenchmarkSpMV is the layout × parallelism SpMV ablation the
// BENCH_pipeline.json artifact carries: the same Laplacian matvec at
// n ≈ 20k and n ≈ 200k rows, in the CSR row layout and the SELL-C-σ
// slice layout, serially and through the persistent worker pool under
// the auto heuristics. CI requires all eight rows to be present
// (cmd/benchjson -require) and gates the csr-vs-sell serial ratio at
// n=200k. The "workers" metric on the parallel rows records the fan-out
// actually engaged: on a single-core host the auto path selects 1 worker
// and the parallel rows measure the same serial kernel (any delta is run
// noise) — the parallel axis only carries signal where workers > 1; the
// layout axis carries signal everywhere.
func BenchmarkSpMV(b *testing.B) {
	sizes := []struct {
		name string
		g    *graph.Graph
	}{
		{"n20k", graph.Grid(141, 141)},  // 19881 rows
		{"n200k", graph.Grid(450, 450)}, // 202500 rows
	}
	for _, sz := range sizes {
		n := sz.g.N()
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i % 17)
		}
		op := New(sz.g)
		sell := NewSell(op)
		b.Run("csr/serial/"+sz.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op.Apply(x, y)
			}
		})
		b.Run("sell/serial/"+sz.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sell.Apply(x, y)
			}
		})
		pop := NewParallelOp(op, 0)
		b.Run("csr/parallel/"+sz.name, func(b *testing.B) {
			b.ReportMetric(float64(pop.Workers()), "workers")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pop.Apply(x, y)
			}
		})
		psell := NewParallelSell(sell, 0)
		b.Run("sell/parallel/"+sz.name, func(b *testing.B) {
			b.ReportMetric(float64(psell.Workers()), "workers")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				psell.Apply(x, y)
			}
		})
	}
}
