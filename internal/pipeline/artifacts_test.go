package pipeline

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/perm"
	"repro/internal/scratch"
)

// countEigensolves runs f with the core eigensolve hook installed and
// returns how many Fiedler eigensolves it performed.
func countEigensolves(f func()) int {
	var solves int64
	restore := core.SetEigensolveTestHook(func(int) { atomic.AddInt64(&solves, 1) })
	defer restore()
	f()
	return int(atomic.LoadInt64(&solves))
}

// The PR's acceptance gate: with both SPECTRAL candidates in the portfolio,
// Auto performs exactly one Fiedler eigensolve per nontrivial component —
// the artifact cache shares the solve — at any parallelism.
func TestAutoEigensolvesOncePerComponent(t *testing.T) {
	g := multiComponentGraph() // 4 nontrivial components + edge + singleton
	const nontrivial = 4
	for _, workers := range []int{1, 8} {
		var rep Report
		solves := countEigensolves(func() {
			p, r, err := Auto(context.Background(), g, Options{Seed: 5, Parallelism: workers}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Check(); err != nil {
				t.Fatal(err)
			}
			rep = r
		})
		if solves != nontrivial {
			t.Fatalf("parallelism %d: %d eigensolves for %d nontrivial components — SPECTRAL and SPECTRAL+SLOAN must share one solve",
				workers, solves, nontrivial)
		}
		if rep.Eigensolves != nontrivial {
			t.Fatalf("parallelism %d: Report.Eigensolves = %d, want %d", workers, rep.Eigensolves, nontrivial)
		}
		if rep.Solve.MatVecs == 0 {
			t.Fatalf("parallelism %d: aggregate Solve.MatVecs not recorded", workers)
		}
	}
}

// A portfolio with a single spectral entry still solves once per component,
// and one with no spectral entry solves zero times.
func TestAutoEigensolveCountPerPortfolio(t *testing.T) {
	g := multiComponentGraph()
	cases := []struct {
		portfolio []string
		want      int
	}{
		{[]string{AlgSpectral}, 4},
		{[]string{AlgSpectralSloan}, 4},
		{[]string{AlgSpectral, AlgSpectralSloan}, 4},
		{[]string{AlgRCM, AlgGK, AlgGPS, AlgSloan}, 0},
	}
	for _, tc := range cases {
		solves := countEigensolves(func() {
			if _, _, err := Auto(context.Background(), g, Options{Seed: 2, Portfolio: tc.portfolio}, nil); err != nil {
				t.Fatal(err)
			}
		})
		if solves != tc.want {
			t.Fatalf("portfolio %v: %d eigensolves, want %d", tc.portfolio, solves, tc.want)
		}
	}
}

// Spectral candidates must expose the shared solver statistics; the
// combinatorial candidates must not.
func TestCandidateSolveStats(t *testing.T) {
	g := multiComponentGraph()
	_, rep, err := Auto(context.Background(), g, Options{Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range rep.Components {
		if cr.Winner == AlgTrivial {
			continue
		}
		var spectral, hybrid *Candidate
		for i := range cr.Candidates {
			c := &cr.Candidates[i]
			switch c.Algorithm {
			case AlgSpectral:
				spectral = c
			case AlgSpectralSloan:
				hybrid = c
			default:
				if c.Solve != nil {
					t.Fatalf("component %d: combinatorial candidate %s carries solver stats", cr.Index, c.Algorithm)
				}
			}
		}
		if spectral == nil || hybrid == nil {
			t.Fatalf("component %d: spectral candidates missing", cr.Index)
		}
		if spectral.Solve == nil || hybrid.Solve == nil {
			t.Fatalf("component %d: spectral candidates missing solver stats", cr.Index)
		}
		if *spectral.Solve != *hybrid.Solve {
			t.Fatalf("component %d: SPECTRAL and SPECTRAL+SLOAN report different solves:\n%+v\n%+v",
				cr.Index, *spectral.Solve, *hybrid.Solve)
		}
		if spectral.Solve.MatVecs == 0 {
			t.Fatalf("component %d: zero matvecs recorded", cr.Index)
		}
	}
}

// Every artifact-backed candidate must be byte-identical to its standalone
// algorithm: the cache only removes recomputation, never changes results.
func TestArtifactCandidatesMatchStandalone(t *testing.T) {
	// One connected graph (grid plus chords) so the standalone per-graph
	// entry points see exactly the pipeline's component.
	b := graph.NewBuilder(15 * 15)
	for r := 0; r < 15; r++ {
		for c := 0; c < 15; c++ {
			v := r*15 + c
			if c+1 < 15 {
				b.AddEdge(v, v+1)
			}
			if r+1 < 15 {
				b.AddEdge(v, v+15)
			}
		}
	}
	for i := 0; i < 15; i++ {
		b.AddEdge(i, 224-i)
	}
	g := b.Build()

	seed := int64(11)
	standalone := map[string]func() perm.Perm{
		AlgRCM:   func() perm.Perm { return order.RCM(g) },
		AlgCM:    func() perm.Perm { return order.CuthillMcKee(g) },
		AlgGPS:   func() perm.Perm { return order.GPS(g) },
		AlgGK:    func() perm.Perm { return order.GK(g) },
		AlgKing:  func() perm.Perm { return order.King(g) },
		AlgSloan: func() perm.Perm { return order.Sloan(g) },
		AlgSpectral: func() perm.Perm {
			p, _, err := core.SpectralWS(context.Background(), scratch.New(), g, core.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		AlgSpectralSloan: func() perm.Perm {
			p, _, err := core.SpectralSloanWS(context.Background(), scratch.New(), g, core.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	for alg, f := range standalone {
		p, _, err := Auto(context.Background(), g, Options{Seed: seed, Portfolio: []string{alg}}, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		want := f()
		if !p.Equal(want) {
			t.Errorf("%s: artifact-backed candidate differs from standalone algorithm", alg)
		}
	}
}

// Artifacts are memoized: repeated access returns identical values, and the
// pseudo-diameter substrate matches a direct graph.PseudoDiameter call.
func TestArtifactsMemoization(t *testing.T) {
	g := graph.Grid(12, 9)
	ws := scratch.New()
	art := newArtifacts(g, core.Options{Seed: 3}, nil)

	root := art.Root()
	wantRoot, _ := graph.PseudoPeripheral(g, 0)
	if root != wantRoot {
		t.Fatalf("Root artifact %d != PseudoPeripheral %d", root, wantRoot)
	}
	u, v, lsU, lsV := art.Diameter()
	wu, wv, wlsU, wlsV := graph.PseudoDiameter(g, 0)
	if u != wu || v != wv || lsU.Depth() != wlsU.Depth() || lsV.Depth() != wlsV.Depth() {
		t.Fatalf("Diameter artifact (%d,%d) != PseudoDiameter (%d,%d)", u, v, wu, wv)
	}
	if r2 := art.Root(); r2 != root {
		t.Fatalf("Root not memoized: %d then %d", root, r2)
	}

	x1, st1, err := art.Fiedler(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	x2, st2, err := art.Fiedler(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	if &x1[0] != &x2[0] || st1 != st2 {
		t.Fatal("Fiedler artifact recomputed on second access")
	}
	if st1.MatVecs == 0 || st1.Scheme == "" {
		t.Fatalf("Fiedler stats not populated: %+v", st1)
	}
	// The memoized spectral ordering matches core.SpectralWS, and its cached
	// envelope size is the true one.
	o, esize, _, st3, err := art.Spectral(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	if st3 != st1 {
		t.Fatal("Spectral artifact reports different solve stats")
	}
	p, _, err := core.SpectralWS(context.Background(), scratch.New(), g, core.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Equal(p) {
		t.Fatal("artifact spectral ordering differs from core.SpectralWS")
	}
	if esize != envelope.Esize(g, o) {
		t.Fatalf("cached esize %d != recomputed %d", esize, envelope.Esize(g, o))
	}
	if o2, _, _, _, _ := art.Spectral(context.Background(), ws); &o2[0] != &o[0] {
		t.Fatal("Spectral artifact recomputed on second access")
	}
}

// TestArtifactsOperatorShared pins the per-component operator artifact: one
// Laplacian operator (with its worker partition) is built per component and
// every access — including the Fiedler solve — sees the same instance.
func TestArtifactsOperatorShared(t *testing.T) {
	g := graph.Grid(20, 15)
	art := newArtifacts(g, core.Options{Seed: 3}, nil)
	op1 := art.Operator()
	if op1 == nil || op1.Dim() != g.N() {
		t.Fatalf("Operator artifact wrong: %v", op1)
	}
	if op2 := art.Operator(); op2 != op1 {
		t.Fatal("Operator artifact rebuilt on second access")
	}
	ws := scratch.Get()
	defer scratch.Put(ws)
	if _, st, err := art.Fiedler(context.Background(), ws); err != nil {
		t.Fatal(err)
	} else if st.Workers != op1.Workers() {
		t.Fatalf("Fiedler solve reports %d workers, shared operator has %d", st.Workers, op1.Workers())
	}
}
