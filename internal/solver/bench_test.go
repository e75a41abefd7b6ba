package solver_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scratch"
	"repro/internal/solver"
)

// BenchmarkEigensolver is the multilevel-vs-direct-Lanczos ablation the
// BENCH_pipeline.json artifact tracks, and the crossover sweep behind
// MethodAuto's choice of the multilevel solver at every size:
//
//   - tri_n250 … tri_n4k: triangulated meshes of aspect 2 from about 250 to
//     3900 vertices, whose λ2 is simple (λ3 ≈ 4·λ2);
//   - pow9_n862: the POW9 stand-in at scale 0.5, where RQI started from a
//     smoothed interpolant used to converge to λ4 or above;
//   - n2k and n20k: square grids, whose λ2 is double, kept for the
//     artifact's history.
//
// Each row reports matvecs/solve and esize, the envelope size of
// Algorithm 1's ordering from the returned vector, beside wall clock.
func BenchmarkEigensolver(b *testing.B) {
	pow9, _ := gen.ByName("POW9")
	sizes := []struct {
		name string
		g    *graph.Graph
	}{
		{"tri_n250", gen.Mesh(22, 11, gen.StencilTri, false, 1)}, // 242 vertices
		{"tri_n500", gen.Mesh(32, 16, gen.StencilTri, false, 1)}, // 512
		{"tri_n1k", gen.Mesh(45, 22, gen.StencilTri, false, 1)},  // 990
		{"tri_n2k", gen.Mesh(63, 32, gen.StencilTri, false, 1)},  // 2016
		{"tri_n4k", gen.Mesh(88, 44, gen.StencilTri, false, 1)},  // 3872
		{"pow9_n862", pow9.Generate(0.5, 1993).G},                // 862
		{"n2k", graph.Grid(45, 45)},                              // 2025
		{"n20k", graph.Grid(141, 141)},                           // 19881
	}
	for _, sz := range sizes {
		for _, s := range []solver.Solver{solver.Multilevel{}, solver.Lanczos{}} {
			b.Run(s.Name()+"/"+sz.name, func(b *testing.B) {
				ws := scratch.New()
				b.ReportAllocs()
				b.ResetTimer()
				var x []float64
				var matvecs int
				for i := 0; i < b.N; i++ {
					var st solver.Stats
					var err error
					x, st, err = s.Solve(context.Background(), ws, sz.g)
					if err != nil {
						b.Fatal(err)
					}
					matvecs = st.MatVecs
				}
				b.StopTimer()
				_, esize, _ := core.OrderFiedler(ws, sz.g, x)
				b.ReportMetric(float64(matvecs), "matvecs/solve")
				b.ReportMetric(float64(esize), "esize")
			})
		}
	}
}
