package multilevel

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/laplacian"
	"repro/internal/linalg"
	"repro/internal/scratch"
)

// gramPencil returns a = XᵀMX and b = XᵀX for the k columns of X (length-m
// vectors) and a random symmetric positive definite M.
func gramPencil(rng *rand.Rand, cols [][]float64) (a, b [3][3]float64) {
	m := len(cols[0])
	mat := make([][]float64, m)
	for i := range mat {
		mat[i] = make([]float64, m)
	}
	for t := 0; t < m+2; t++ { // M = Σ gᵀg + I
		g := make([]float64, m)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		for i := range mat {
			for j := range mat {
				mat[i][j] += g[i] * g[j]
			}
		}
	}
	for i := range mat {
		mat[i][i]++
	}
	for i, ci := range cols {
		for j, cj := range cols {
			for r := 0; r < m; r++ {
				b[i][j] += ci[r] * cj[r]
				for s := 0; s < m; s++ {
					a[i][j] += ci[r] * mat[r][s] * cj[s]
				}
			}
		}
	}
	return a, b
}

// checkRitz holds c to the smallest eigenpair of the k×k pencil (a, b):
// cᵀbc = 1, a·c = θ·b·c, and a − θ·b positive semidefinite, which no
// larger eigenvalue satisfies.
func checkRitz(t *testing.T, a, b [3][3]float64, k int, c [3]float64) {
	t.Helper()
	var theta, norm float64
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			theta += c[i] * a[i][j] * c[j]
			norm += c[i] * b[i][j] * c[j]
		}
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("k=%d: cᵀbc = %v, want 1", k, norm)
	}
	d := linalg.NewDense(k)
	for i := 0; i < k; i++ {
		var r float64
		for j := 0; j < k; j++ {
			r += (a[i][j] - theta*b[i][j]) * c[j]
			d.Set(i, j, a[i][j]-theta*b[i][j])
		}
		if math.Abs(r) > 1e-8*(1+math.Abs(theta)) {
			t.Fatalf("k=%d: residual row %d = %v", k, i, r)
		}
	}
	eig, _ := linalg.SymEig(d)
	if eig[0] < -1e-8*(1+math.Abs(theta)) {
		t.Fatalf("k=%d: θ = %v is not the smallest eigenvalue (a − θb has eigenvalue %v)", k, theta, eig[0])
	}
}

func TestSmallestRitz(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vec := func(scale float64) []float64 {
		v := make([]float64, 6)
		for i := range v {
			v[i] = scale * rng.NormFloat64()
		}
		return v
	}
	for trial := 0; trial < 50; trial++ {
		// Unequal norms, as in the step, whose w and p are never scaled.
		x, w, p := vec(1), vec(0.01), vec(30)
		for _, k := range []int{2, 3} {
			a, b := gramPencil(rng, [][]float64{x, w, p}[:k])
			c, ok := smallestRitz(a, b, k)
			if !ok {
				t.Fatalf("trial %d k=%d: independent basis reported singular", trial, k)
			}
			checkRitz(t, a, b, k, c)
		}
	}
	// A p in span{x, w} makes the 3×3 pencil singular; the 2×2 retry on the
	// same Gram matrices must still be exact.
	x, w := vec(1), vec(0.01)
	p := make([]float64, len(x))
	for i := range p {
		p[i] = 3*x[i] - 200*w[i]
	}
	a, b := gramPencil(rng, [][]float64{x, w, p})
	if _, ok := smallestRitz(a, b, 3); ok {
		t.Fatal("dependent basis not reported singular")
	}
	c, ok := smallestRitz(a, b, 2)
	if !ok {
		t.Fatal("2×2 retry reported singular")
	}
	checkRitz(t, a, b, 2, c)
}

// From a start that is mostly λ3's eigenvector, the minimization step
// carries the iterate into λ2's basin, where RQI, which converges to the
// eigenvalue nearest its start, then polishes λ2 and not λ3. The graph is
// a 40×10 grid, whose λ2 = 2 − 2cos(π/40) is simple and whose λ3 =
// 2 − 2cos(2π/40) is four times larger.
func TestLOBPCGStepLeavesLambda3(t *testing.T) {
	const nx, ny = 40, 10
	g := graph.Grid(nx, ny)
	op := laplacian.New(g)
	lam2, lam3 := 2-2*math.Cos(math.Pi/nx), 2-2*math.Cos(2*math.Pi/nx)
	start := func() []float64 {
		x := make([]float64, g.N())
		for v := range x {
			// Grid numbers vertices row by row along the nx side.
			u := (float64(v%nx) + 0.5) * math.Pi / nx
			x[v] = math.Cos(2*u) + 0.05*math.Cos(u) + 0.02*math.Cos(7*u)
		}
		linalg.ProjectOutOnes(x)
		linalg.Normalize(x)
		return x
	}
	x := start()
	if rho := op.RayleighQuotient(x); rho < (lam2+lam3)/2 {
		t.Fatalf("start ρ = %v is already nearer λ2 = %v than λ3 = %v", rho, lam2, lam3)
	}
	ws := scratch.New()
	matvecs := lobpcgWS(ws, g, op, x)
	rho := op.RayleighQuotient(x)
	if rho >= (lam2+lam3)/2 {
		t.Fatalf("after %d matvecs ρ = %v, λ2 = %v, λ3 = %v: still in λ3's basin", matvecs, rho, lam2, lam3)
	}
	r := make([]float64, len(x))
	op.Apply(x, r)
	linalg.Axpy(-rho, x, r)
	if res := linalg.Nrm2(r) / linalg.Nrm2(x); res > lobpcgTol*rho && matvecs <= lobpcgMaxSteps {
		t.Fatalf("stopped after %d matvecs with residual %v > %v·ρ", matvecs, res, lobpcgTol)
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	if math.Abs(sum) > 1e-9*linalg.Nrm2(x) {
		t.Fatalf("iterate left 𝟏⊥: Σx = %v", sum)
	}
	rr := RQIOnWS(context.Background(), ws, op, x, RQIOptions{})
	if math.Abs(rr.Lambda-lam2) > 1e-9*lam2 {
		t.Fatalf("RQI after the step reached λ = %v, want λ2 = %v", rr.Lambda, lam2)
	}
	// Without the step RQI settles on λ3.
	y := start()
	if rr := RQIOnWS(context.Background(), ws, op, y, RQIOptions{}); math.Abs(rr.Lambda-lam3) > 1e-9*lam3 {
		t.Fatalf("RQI from the raw start reached λ = %v, expected λ3 = %v", rr.Lambda, lam3)
	}
}
