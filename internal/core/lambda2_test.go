package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/laplacian"
	"repro/internal/linalg"
	"repro/internal/scratch"
)

// Differential λ2 test: both solver paths against the dense spectrum of
// the Laplacian. Every λ a solver returns is a Rayleigh quotient, so it
// never lies below λ2. Where λ2 is well separated, (λ3−λ2)/λ2 ≥ 5%, both
// paths must find it; below that gap the multilevel solver may land on λ3
// instead, and on nothing else.
func TestLambda2MatchesDenseSpectrum(t *testing.T) {
	var graphs []*graph.Graph
	var names []string
	for _, scale := range []float64{0.02, 0.05, 0.1, 0.25} {
		for _, spec := range gen.Specs() {
			g := spec.Generate(scale, 1993).G
			if g.N() >= 3 && g.N() <= 500 && graph.IsConnected(g) {
				graphs = append(graphs, g)
				names = append(names, spec.Name)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 12; i++ {
		graphs = append(graphs, randomConnected(rng, 60+rng.Intn(340), 2+rng.Float64()*3))
		names = append(names, "random")
	}
	if len(graphs) < 35 {
		t.Fatalf("only %d graphs", len(graphs))
	}
	ctx := context.Background()
	ws := scratch.New()
	for gi, g := range graphs {
		eig := denseSpectrum(t, g)
		if g.N() <= 150 {
			// Anchor the fast reference to the Jacobi solver.
			jac, _ := linalg.SymEig(laplacian.Dense(g))
			for k := range eig {
				if math.Abs(eig[k]-jac[k]) > 1e-10*(1+math.Abs(jac[k])) {
					t.Fatalf("%s (n=%d): Householder-QL λ%d = %v, Jacobi %v", names[gi], g.N(), k+1, eig[k], jac[k])
				}
			}
		}
		l2, l3 := eig[1], eig[2]
		separated := (l3-l2)/l2 >= 0.05
		for _, m := range []Method{MethodLanczos, MethodMultilevel} {
			for seed := int64(1); seed <= 5; seed++ {
				_, st, err := FiedlerConnectedWS(ctx, ws, g, Options{Method: m, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				lam := st.Lambda
				near := func(ref float64) bool { return math.Abs(lam-ref) <= 1e-6*ref }
				switch {
				case lam < l2*(1-1e-9):
					t.Errorf("%s (n=%d) %s seed %d: λ = %v below λ2 = %v", names[gi], g.N(), st.Scheme, seed, lam, l2)
				case separated && !near(l2):
					t.Errorf("%s (n=%d) %s seed %d: λ = %v, want λ2 = %v (λ3 = %v)", names[gi], g.N(), st.Scheme, seed, lam, l2, l3)
				case !separated && !near(l2) && !near(l3):
					t.Errorf("%s (n=%d) %s seed %d: λ = %v is neither λ2 = %v nor λ3 = %v", names[gi], g.N(), st.Scheme, seed, lam, l2, l3)
				}
			}
		}
	}
}

// POW9 at scale 0.5 (n = 862) has λ3 almost three times λ2, yet a smoothed
// interpolant can sit nearer a higher eigenvalue, where RQI alone converges.
// Direct Lanczos is the reference at this size.
func TestLambda2PowerNetwork(t *testing.T) {
	spec, _ := gen.ByName("POW9")
	g := spec.Generate(0.5, 1993).G
	ctx := context.Background()
	ws := scratch.New()
	for seed := int64(1); seed <= 5; seed++ {
		_, ref, err := FiedlerConnectedWS(ctx, ws, g, Options{Method: MethodLanczos, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := FiedlerConnectedWS(ctx, ws, g, Options{Method: MethodMultilevel, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(st.Lambda-ref.Lambda) > 1e-6*ref.Lambda {
			t.Errorf("seed %d: multilevel λ = %v, Lanczos λ2 = %v", seed, st.Lambda, ref.Lambda)
		}
	}
}

// denseSpectrum returns the ascending eigenvalues of g's Laplacian. The
// dense matrix is reduced to tridiagonal form by Householder reflections
// and handed to linalg.TridiagEig's QL iteration: O(n³) once, where
// linalg.SymEig's Jacobi sweeps take seconds at a few hundred vertices.
func denseSpectrum(t *testing.T, g *graph.Graph) []float64 {
	t.Helper()
	a := laplacian.Dense(g).A
	n := g.N()
	v, p := make([]float64, n), make([]float64, n)
	d, e := make([]float64, n), make([]float64, n-1)
	for k := 0; k < n-2; k++ {
		// Reflect column k below the diagonal onto its first entry.
		var s float64
		for i := k + 1; i < n; i++ {
			s += a[i*n+k] * a[i*n+k]
		}
		alpha := -math.Copysign(math.Sqrt(s), a[(k+1)*n+k])
		e[k] = alpha
		if s == 0 {
			continue
		}
		for i := k + 1; i < n; i++ {
			v[i] = a[i*n+k]
		}
		v[k+1] -= alpha
		vn := math.Sqrt(s - a[(k+1)*n+k]*a[(k+1)*n+k] + v[k+1]*v[k+1])
		for i := k + 1; i < n; i++ {
			v[i] /= vn
		}
		// Trailing block B ← H·B·H with H = I − 2vvᵀ: B − 2vqᵀ − 2qvᵀ,
		// p = B·v and q = p − (vᵀp)·v.
		var vp float64
		for i := k + 1; i < n; i++ {
			var t float64
			for j := k + 1; j < n; j++ {
				t += a[i*n+j] * v[j]
			}
			p[i] = t
			vp += v[i] * t
		}
		for i := k + 1; i < n; i++ {
			p[i] -= vp * v[i]
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= 2 * (v[i]*p[j] + p[i]*v[j])
			}
		}
	}
	for i := 0; i < n; i++ {
		d[i] = a[i*n+i]
	}
	if n >= 2 {
		e[n-2] = a[(n-1)*n+n-2]
	}
	eig, _, err := linalg.TridiagEig(d, e, false)
	if err != nil {
		t.Fatal(err)
	}
	return eig
}
