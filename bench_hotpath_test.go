// Hot-path microbenchmarks: envelope scoring, subgraph extraction, CSR
// construction and the portfolio engine on the generated suite. These are
// the per-candidate costs of the pipeline; cmd/benchjson turns their output
// into the BENCH_pipeline.json artifact and CI gates the allocation counts.
package envred_test

import (
	"bytes"
	"context"
	"testing"

	envred "repro"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/order"
	"repro/internal/scratch"
)

// benchDisconnected builds a multi-component graph (a union of grids) used
// by the subgraph-extraction and portfolio benchmarks.
func benchDisconnected() (*graph.Graph, [][]int) {
	b := graph.NewBuilder(30*30 + 20*20 + 10*10)
	off := 0
	for _, side := range []int{30, 20, 10} {
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				v := off + r*side + c
				if c+1 < side {
					b.AddEdge(v, v+1)
				}
				if r+1 < side {
					b.AddEdge(v, v+side)
				}
			}
		}
		off += side * side
	}
	g := b.Build()
	return g, graph.Components(g)
}

// BenchmarkEnvelopeCompute measures the all-stats envelope scoring of one
// ordering — the cost Auto pays per (component, algorithm) candidate.
func BenchmarkEnvelopeCompute(b *testing.B) {
	p := benchProblem(b, "BARTH4")
	o := envred.RCM(p.G)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = envelope.Compute(p.G, o)
	}
}

// BenchmarkEnvelopeEsize measures the envelope-size-only scoring used by
// Algorithm 1's ascending/descending comparison.
func BenchmarkEnvelopeEsize(b *testing.B) {
	p := benchProblem(b, "BARTH4")
	o := envred.RCM(p.G)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = envelope.Esize(p.G, o)
	}
}

// BenchmarkSubgraph measures induced-subgraph extraction of every component
// of a disconnected graph — the pipeline's stage-1 cost.
func BenchmarkSubgraph(b *testing.B) {
	g, comps := benchDisconnected()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range comps {
			_, _ = g.Subgraph(c)
		}
	}
}

// BenchmarkBuilderBuild measures canonical CSR construction from an edge
// list.
func BenchmarkBuilderBuild(b *testing.B) {
	p := benchProblem(b, "BARTH4")
	edges := p.G.Edges()
	n := p.G.N()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb := graph.NewBuilder(n)
		for _, e := range edges {
			bb.AddEdge(e[0], e[1])
		}
		_ = bb.Build()
	}
}

// BenchmarkAutoSuite runs the portfolio engine on a fixed disconnected
// graph with the cheap combinatorial portfolio — the pipeline number the
// BENCH_pipeline.json trajectory tracks. Each row orders through one
// cache-less Session, so every iteration pays for the whole run
// (decomposition, extraction, candidates and, in the spectral row, the
// eigensolves) rather than a cache lookup. Every row reports the worker
// pool it ran on as "workers", which benchjson's gate holds to at least
// two on the parallel row.
func BenchmarkAutoSuite(b *testing.B) {
	g, _ := benchDisconnected()
	ctx := context.Background()
	run := func(b *testing.B, opt envred.SessionOptions) {
		sess := benchSession(opt)
		b.ReportAllocs()
		var res envred.Result
		for i := 0; i < b.N; i++ {
			var err error
			if res, err = sess.Auto(ctx, g); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Report.Parallelism), "workers")
	}
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			run(b, envred.SessionOptions{
				Parallelism: workers,
				Portfolio:   []string{envred.AlgRCM, envred.AlgGK, envred.AlgSloan},
			})
		})
	}
	b.Run("spectral", func(b *testing.B) { run(b, envred.SessionOptions{}) })
}

// bcsstk30 is BCSSTK30 at a quarter of the paper's size: six degrees of
// freedom per shell node give it the densest rows of the suite, where the
// Sloan and King priority queues do the most work.
func bcsstk30(b *testing.B) *graph.Graph {
	b.Helper()
	spec, ok := gen.ByName("BCSSTK30")
	if !ok {
		b.Fatal("BCSSTK30 missing from the generated suite")
	}
	return spec.Generate(0.25, benchSeed).G
}

// BenchmarkReadMatrixMarket decodes BCSSTK30's Matrix Market pattern body,
// the decode every daemon request and every cold library run starts with.
func BenchmarkReadMatrixMarket(b *testing.B) {
	var body bytes.Buffer
	if err := mm.WriteGraph(&body, bcsstk30(b)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mm.ReadGraph(bytes.NewReader(body.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSloanGK times the orderings that run on the shared indexed
// vertex queue on BCSSTK30: Sloan, Gibbs–King, and the Sloan refinement of
// a spectral ordering that SPECTRAL+SLOAN runs after the Fiedler solve.
func BenchmarkSloanGK(b *testing.B) {
	g := bcsstk30(b)
	ws := scratch.New()
	x, _, err := core.FiedlerConnectedWS(context.Background(), ws, g, core.Options{Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	o, _, _ := core.OrderFiedler(ws, g, x)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"sloan", func() { order.SloanWS(ws, g) }},
		{"gk", func() { order.GK(g) }},
		{"sloan_refine", func() { core.SloanRefine(g, o) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})
	}
}
