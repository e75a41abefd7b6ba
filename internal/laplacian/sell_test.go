package laplacian

import (
	"math"
	"testing"

	"repro/internal/graph"
)

// sellSuite is the graph suite the SELL equivalence properties run over:
// regular grids, uniform random graphs, and pathological degree
// distributions (stars and near-cliques embedded in sparse hosts) that
// stress the σ-window sorting, the ragged tails and the rest rows.
func sellSuite(t testing.TB) []*graph.Graph {
	suite := []*graph.Graph{
		graph.Grid(37, 41), // 1517 rows: partial final window + rest rows
		graph.Grid(64, 64), // 4096 rows: exact window multiple
		graph.Path(1000),   // degree ≤ 2, long diameter
		graph.Complete(97), // dense: every slice ragged-free, huge kmin
		graph.Random(5000, 15000, 1),
		graph.Random(4099, 9000, 2), // odd n: rest rows
	}
	// Power-law-ish pathology: a few hubs adjacent to everything plus a
	// sparse ring — extreme degree spread inside single σ-windows.
	b := graph.NewBuilder(3000)
	for v := 1; v < 3000; v++ {
		b.AddEdge(v-1, v)
	}
	for hub := 0; hub < 5; hub++ {
		for v := 10 + hub; v < 3000; v += 7 {
			b.AddEdge(hub, v)
		}
	}
	suite = append(suite, b.Build())
	return suite
}

// TestSellMatchesCSRBitwise is the tentpole equivalence property: the
// SELL-C-σ operator reproduces the CSR Op bitwise for Apply and
// ApplyAxpy on every suite graph, under every worker count 1..8 (all
// through the persistent pool), and under several σ windows.
func TestSellMatchesCSRBitwise(t *testing.T) {
	for _, sigma := range []int{8, 64, SellSigma} {
		for gi, g := range sellSuite(t) {
			n := g.N()
			op := New(g)
			sell := newSell(op, sigma)
			x := make([]float64, n)
			q := make([]float64, n)
			for i := range x {
				x[i] = math.Sin(float64(i)*0.61 + float64(gi))
				q[i] = math.Cos(float64(i) * 0.23)
			}
			want := make([]float64, n)
			wantAxpy := make([]float64, n)
			op.Apply(x, want)
			op.ApplyAxpy(x, wantAxpy, 0.75, q)
			got := make([]float64, n)
			sell.Apply(x, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("σ=%d graph %d: serial Apply mismatch at row %d: %v vs %v", sigma, gi, i, got[i], want[i])
				}
			}
			sell.ApplyAxpy(x, got, 0.75, q)
			for i := range wantAxpy {
				if got[i] != wantAxpy[i] {
					t.Fatalf("σ=%d graph %d: serial ApplyAxpy mismatch at row %d: %v vs %v", sigma, gi, i, got[i], wantAxpy[i])
				}
			}
			for workers := 1; workers <= 8; workers++ {
				pop := NewParallelSell(sell, workers)
				pop.Apply(x, got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("σ=%d graph %d workers %d: Apply mismatch at row %d: %v vs %v",
							sigma, gi, workers, i, got[i], want[i])
					}
				}
				pop.ApplyAxpy(x, got, 0.75, q)
				for i := range wantAxpy {
					if got[i] != wantAxpy[i] {
						t.Fatalf("σ=%d graph %d workers %d: ApplyAxpy mismatch at row %d: %v vs %v",
							sigma, gi, workers, i, got[i], wantAxpy[i])
					}
				}
			}
		}
	}
}

// TestSellCoversAllRows checks the layout partition: slices + rest
// jointly cover every vertex exactly once, and every slice's full phase
// plus tail stores exactly its rows' adjacency.
func TestSellCoversAllRows(t *testing.T) {
	for _, g := range sellSuite(t) {
		s := NewSell(New(g))
		seen := make([]bool, g.N())
		mark := func(v int32) {
			if seen[v] {
				t.Fatalf("row %d packed twice", v)
			}
			seen[v] = true
		}
		for _, v := range s.rows {
			mark(v)
		}
		for _, v := range s.rest {
			mark(v)
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("row %d not packed", v)
			}
		}
		if len(s.rest) >= sellC {
			t.Fatalf("%d rest rows; want < %d", len(s.rest), sellC)
		}
		if got, want := len(s.cols)+len(s.tails)+restEntries(g, s), len(g.Adj); got != want {
			t.Fatalf("stored entries %d, want %d", got, want)
		}
	}
}

func restEntries(g *graph.Graph, s *Sell) int {
	n := 0
	for _, v := range s.rest {
		n += g.Degree(int(v))
	}
	return n
}
