// Benchmarks regenerating every table and figure of the paper's Section 4.
//
// Each BenchmarkTable4x_* sub-benchmark runs one (problem, algorithm) cell
// of the corresponding table: it computes the ordering and reports envelope
// size and bandwidth as benchmark metrics alongside the timing — the same
// three columns the paper prints. BenchmarkTable44_* times the envelope
// Cholesky factorization under SPECTRAL vs RCM (Table 4.4), and
// BenchmarkFigure4_* regenerates the BARTH4 spy plots (Figures 4.1–4.5).
//
// Problems are generated at benchScale of the paper's sizes so the full
// suite completes in minutes; `go run ./cmd/paperbench` runs the
// full-scale experiment and writes the complete tables.
package envred_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	envred "repro"
	"repro/internal/chol"
	"repro/internal/envelope"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/perm"
	"repro/internal/spy"
)

const (
	benchScale = 0.10
	benchSeed  = 1993 // the paper's year; any fixed seed works
)

var problemCache = map[string]gen.Problem{}

func benchProblem(b *testing.B, name string) gen.Problem {
	b.Helper()
	if p, ok := problemCache[name]; ok {
		return p
	}
	spec, ok := gen.ByName(name)
	if !ok {
		b.Fatalf("unknown problem %s", name)
	}
	p := spec.Generate(benchScale, benchSeed)
	problemCache[name] = p
	return p
}

// benchTableCell runs one (problem, algorithm) cell: each iteration
// computes the ordering from scratch (what the "Run time" column measures);
// envelope and bandwidth are attached as metrics.
func benchTableCell(b *testing.B, problem string, alg string) {
	p := benchProblem(b, problem)
	var f harness.OrderFunc
	for _, a := range harness.Algorithms(benchSeed) {
		if a.Name == alg {
			f = a.F
		}
	}
	if f == nil {
		b.Fatalf("unknown algorithm %s", alg)
	}
	var last perm.Perm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := f(context.Background(), p.G)
		if err != nil {
			b.Fatal(err)
		}
		last = r.Perm
	}
	b.StopTimer()
	s := envelope.Compute(p.G, last)
	b.ReportMetric(float64(s.Esize), "envelope")
	b.ReportMetric(float64(s.Bandwidth), "bandwidth")
}

func benchTable(b *testing.B, problems []string) {
	for _, prob := range problems {
		for _, alg := range []string{harness.AlgSpectral, harness.AlgGK, harness.AlgGPS, harness.AlgRCM} {
			b.Run(fmt.Sprintf("%s/%s", prob, alg), func(b *testing.B) {
				benchTableCell(b, prob, alg)
			})
		}
	}
}

// BenchmarkTable41 regenerates Table 4.1 (Boeing–Harwell structural).
func BenchmarkTable41(b *testing.B) {
	benchTable(b, []string{"BCSSTK13", "BCSSTK29", "BCSSTK30", "BCSSTK31", "BCSSTK32", "BCSSTK33"})
}

// BenchmarkTable42 regenerates Table 4.2 (Boeing–Harwell miscellaneous).
func BenchmarkTable42(b *testing.B) {
	benchTable(b, []string{"CAN1072", "POW9", "BLKHOLE", "DWT2680", "SSTMODEL"})
}

// BenchmarkTable43 regenerates Table 4.3 (NASA).
func BenchmarkTable43(b *testing.B) {
	benchTable(b, []string{"BARTH4", "SHUTTLE", "SKIRT", "PWT", "BODY", "FLAP", "IN3C"})
}

// BenchmarkTable44 regenerates Table 4.4: numeric envelope Cholesky
// factorization time under the SPECTRAL vs RCM orderings (the ordering is
// computed outside the timed loop; only the factorization is measured, as
// in the paper).
func BenchmarkTable44(b *testing.B) {
	for _, prob := range []string{"BCSSTK29", "BCSSTK33", "BARTH4"} {
		for _, alg := range []string{harness.AlgSpectral, harness.AlgRCM} {
			b.Run(fmt.Sprintf("%s/%s", prob, alg), func(b *testing.B) {
				p := benchProblem(b, prob)
				var f harness.OrderFunc
				for _, a := range harness.Algorithms(benchSeed) {
					if a.Name == alg {
						f = a.F
					}
				}
				r, err := f(context.Background(), p.G)
				if err != nil {
					b.Fatal(err)
				}
				o := r.Perm
				vals := chol.LaplacianPlusIdentity(p.G)
				var flops int64
				var esize int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m, err := chol.NewMatrix(p.G, o, vals) // assembly untimed
					if err != nil {
						b.Fatal(err)
					}
					esize = m.EnvelopeSize()
					b.StartTimer()
					fac, err := chol.Factorize(m)
					if err != nil {
						b.Fatal(err)
					}
					flops = fac.Flops()
				}
				b.StopTimer()
				b.ReportMetric(float64(esize), "envelope")
				b.ReportMetric(float64(flops), "flops")
			})
		}
	}
}

// benchSession returns a cache-less Session seeded with benchSeed: every
// call on it pays for its own eigensolves, so a timed loop measures the
// solves instead of artifact-cache hits after the first iteration.
func benchSession(opt envred.SessionOptions) *envred.Session {
	opt.Seed, opt.CacheGraphs = benchSeed, -1
	return envred.NewSession(opt)
}

// benchOrder times one registered algorithm on g under the given
// eigensolver options through one cache-less Session, reporting the
// envelope as a metric.
func benchOrder(b *testing.B, g *graph.Graph, alg string, opt envred.SpectralOptions) {
	sess := benchSession(envred.SessionOptions{Spectral: opt})
	var es int64
	for i := 0; i < b.N; i++ {
		res, err := sess.Order(context.Background(), g, alg)
		if err != nil {
			b.Fatal(err)
		}
		es = res.Stats.Esize
	}
	b.ReportMetric(float64(es), "envelope")
}

// figureOrderings mirrors Figures 4.1–4.5: the BARTH4 matrix under the
// original, GPS, GK, RCM and SPECTRAL orderings.
func figureOrderings(b *testing.B, g *graph.Graph) map[string]perm.Perm {
	b.Helper()
	spectral, err := benchSession(envred.SessionOptions{}).Order(context.Background(), g, envred.AlgSpectral)
	if err != nil {
		b.Fatal(err)
	}
	return map[string]perm.Perm{
		"Fig4.1_original": perm.Identity(g.N()),
		"Fig4.2_GPS":      envred.GPS(g),
		"Fig4.3_GK":       envred.GK(g),
		"Fig4.4_RCM":      envred.RCM(g),
		"Fig4.5_SPECTRAL": spectral.Perm,
	}
}

// BenchmarkFigures41to45 regenerates the five BARTH4 spy plots; each
// iteration rasterizes and encodes one figure.
func BenchmarkFigures41to45(b *testing.B) {
	p := benchProblem(b, "BARTH4")
	figs := figureOrderings(b, p.G)
	for _, name := range []string{"Fig4.1_original", "Fig4.2_GPS", "Fig4.3_GK", "Fig4.4_RCM", "Fig4.5_SPECTRAL"} {
		o := figs[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := spy.Rasterize(p.G, o, 256)
				if err := r.WritePGM(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEigensolver compares the two Fiedler solvers at equal
// ordering quality targets — the DESIGN.md ablation for the multilevel
// machinery of §3.
func BenchmarkAblationEigensolver(b *testing.B) {
	p := benchProblem(b, "PWT")
	for _, m := range []struct {
		name   string
		method envred.SpectralMethod
	}{
		{"Lanczos", envred.MethodLanczos},
		{"Multilevel", envred.MethodMultilevel},
	} {
		b.Run(m.name, func(b *testing.B) {
			benchOrder(b, p.G, envred.AlgSpectral, envred.SpectralOptions{Method: m.method})
		})
	}
}

// BenchmarkAblationCoarsestSize sweeps the multilevel stopping size (the
// paper's "typically 100"): smaller coarsest graphs mean more interpolation
// levels and cheaper Lanczos; larger ones the reverse. Envelope quality is
// attached as a metric so the time/quality trade is visible in one run.
func BenchmarkAblationCoarsestSize(b *testing.B) {
	p := benchProblem(b, "BODY")
	for _, size := range []int{25, 100, 400, 1600} {
		b.Run(fmt.Sprintf("coarsest%d", size), func(b *testing.B) {
			benchOrder(b, p.G, envred.AlgSpectral, envred.SpectralOptions{
				Method:     envred.MethodMultilevel,
				Multilevel: envred.MultilevelOptions{CoarsestSize: size},
			})
		})
	}
}

// BenchmarkAblationSmoothing sweeps the Jacobi smoothing sweeps applied to
// each interpolated vector before RQI (DESIGN.md ablation: smoothing
// removes the piecewise-constant interpolation artifacts).
func BenchmarkAblationSmoothing(b *testing.B) {
	p := benchProblem(b, "PWT")
	for _, steps := range []int{1, 3, 8} {
		b.Run(fmt.Sprintf("smooth%d", steps), func(b *testing.B) {
			benchOrder(b, p.G, envred.AlgSpectral, envred.SpectralOptions{
				Method:     envred.MethodMultilevel,
				Multilevel: envred.MultilevelOptions{SmoothSteps: steps},
			})
		})
	}
}

// BenchmarkAutoPortfolio compares the parallel portfolio engine against the
// best single algorithm chosen in hindsight: "Auto" runs the whole
// portfolio per component on a worker pool (1 worker vs all cores), while
// "BestSingle" runs the four paper algorithms sequentially and keeps the
// smallest envelope — the oracle Auto has to match. The envelope metric of
// Auto must never exceed BestSingle's; the timing columns show what the
// portfolio costs (serial) and what the pool buys back (parallel).
func BenchmarkAutoPortfolio(b *testing.B) {
	for _, prob := range []string{"BARTH4", "DWT2680"} {
		p := benchProblem(b, prob)
		for _, pool := range []struct {
			name    string
			workers int
		}{
			{"Auto/serial", 1},
			{"Auto/parallel", 0}, // 0 = GOMAXPROCS
		} {
			b.Run(fmt.Sprintf("%s/%s", prob, pool.name), func(b *testing.B) {
				sess := benchSession(envred.SessionOptions{Parallelism: pool.workers})
				var es int64
				for i := 0; i < b.N; i++ {
					res, err := sess.Auto(context.Background(), p.G)
					if err != nil {
						b.Fatal(err)
					}
					es = res.Stats.Esize
				}
				b.ReportMetric(float64(es), "envelope")
			})
		}
		b.Run(fmt.Sprintf("%s/BestSingle", prob), func(b *testing.B) {
			var es int64
			for i := 0; i < b.N; i++ {
				best := int64(-1)
				for _, alg := range harness.Algorithms(benchSeed) {
					r, err := alg.F(context.Background(), p.G)
					if err != nil {
						b.Fatal(err)
					}
					if e := envred.Esize(p.G, r.Perm); best < 0 || e < best {
						best = e
					}
				}
				es = best
			}
			b.ReportMetric(float64(es), "envelope")
		})
	}
}

// BenchmarkAblationHybrid measures the spectral–Sloan refinement benefit.
// Each row solves its own eigenproblem: the hybrid's time includes the
// spectral solve it refines.
func BenchmarkAblationHybrid(b *testing.B) {
	p := benchProblem(b, "BARTH4")
	for _, m := range []struct{ name, alg string }{
		{"SpectralOnly", envred.AlgSpectral},
		{"SpectralSloan", envred.AlgSpectralSloan},
	} {
		b.Run(m.name, func(b *testing.B) { benchOrder(b, p.G, m.alg, envred.SpectralOptions{}) })
	}
}
