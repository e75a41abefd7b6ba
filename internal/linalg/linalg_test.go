package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSym(n int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := NewDense(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func randSPD(n int, seed int64) *Dense {
	// AᵀA + n·I is comfortably SPD.
	rng := rand.New(rand.NewSource(seed))
	b := NewDense(n)
	for i := range b.A {
		b.A[i] = rng.NormFloat64()
	}
	m := NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b.At(k, i) * b.At(k, j)
			}
			m.Set(i, j, s)
		}
		m.Set(i, i, m.At(i, i)+float64(n))
	}
	return m
}

func TestDotAxpyNrm2(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if d := Dot(x, y); d != 4-10+18 {
		t.Errorf("Dot = %v", d)
	}
	Axpy(2, x, y)
	if y[0] != 6 || y[1] != -1 || y[2] != 12 {
		t.Errorf("Axpy = %v", y)
	}
	if n := Nrm2([]float64{3, 4}); math.Abs(n-5) > 1e-15 {
		t.Errorf("Nrm2 = %v", n)
	}
	if n := Nrm2(nil); n != 0 {
		t.Errorf("Nrm2(nil) = %v", n)
	}
}

func TestNrm2Overflow(t *testing.T) {
	// Naive Σx² would overflow; the scaled version must not.
	x := []float64{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if n := Nrm2(x); math.Abs(n-want)/want > 1e-14 {
		t.Errorf("Nrm2 overflow-guard failed: %v", n)
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{0, 3, 4}
	if n := Normalize(x); math.Abs(n-5) > 1e-15 {
		t.Fatalf("returned norm %v", n)
	}
	if math.Abs(Nrm2(x)-1) > 1e-15 {
		t.Fatalf("not unit after Normalize: %v", x)
	}
	z := []float64{0, 0}
	if n := Normalize(z); n != 0 || z[0] != 0 {
		t.Fatalf("zero vector mishandled")
	}
}

func TestProjectOutOnes(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		x := []float64{a, b, c, d}
		ProjectOutOnes(x)
		var sum float64
		for _, v := range x {
			sum += v
		}
		scale := math.Abs(a) + math.Abs(b) + math.Abs(c) + math.Abs(d) + 1
		return math.Abs(sum) <= 1e-12*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrthogonalizeAgainst(t *testing.T) {
	q := []float64{1 / math.Sqrt2, 1 / math.Sqrt2, 0}
	x := []float64{3, 1, 2}
	OrthogonalizeAgainst(x, q)
	if d := Dot(x, q); math.Abs(d) > 1e-14 {
		t.Fatalf("residual dot = %v", d)
	}
}

func TestSymEigDiagonal(t *testing.T) {
	m := NewDense(3)
	m.Set(0, 0, 3)
	m.Set(1, 1, 1)
	m.Set(2, 2, 2)
	eig, V := SymEig(m)
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(eig[i]-want[i]) > 1e-12 {
			t.Fatalf("eig = %v", eig)
		}
	}
	// Eigenvector for eigenvalue 1 must be ±e_1.
	if math.Abs(math.Abs(V.At(1, 0))-1) > 1e-12 {
		t.Fatalf("V = %+v", V)
	}
}

func TestSymEigResidualAndOrthogonality(t *testing.T) {
	for _, n := range []int{1, 2, 5, 12, 30} {
		m := randSym(n, int64(n))
		eig, V := SymEig(m)
		// Ascending.
		for i := 1; i < n; i++ {
			if eig[i] < eig[i-1]-1e-12 {
				t.Fatalf("n=%d eigenvalues not ascending: %v", n, eig)
			}
		}
		// Residual ‖Av − λv‖ small, eigenvectors orthonormal.
		av := make([]float64, n)
		for k := 0; k < n; k++ {
			v := make([]float64, n)
			for i := 0; i < n; i++ {
				v[i] = V.At(i, k)
			}
			m.MulVec(v, av)
			Axpy(-eig[k], v, av)
			if r := Nrm2(av); r > 1e-9*(1+math.Abs(eig[k])) {
				t.Fatalf("n=%d k=%d residual %v", n, k, r)
			}
			for j := 0; j <= k; j++ {
				u := make([]float64, n)
				for i := 0; i < n; i++ {
					u[i] = V.At(i, j)
				}
				d := Dot(u, v)
				want := 0.0
				if j == k {
					want = 1
				}
				if math.Abs(d-want) > 1e-9 {
					t.Fatalf("n=%d V not orthonormal: <%d,%d> = %v", n, j, k, d)
				}
			}
		}
		// Trace check: Σλ = tr(A).
		var tr, se float64
		for i := 0; i < n; i++ {
			tr += m.At(i, i)
		}
		for _, l := range eig {
			se += l
		}
		if math.Abs(tr-se) > 1e-9*(1+math.Abs(tr)) {
			t.Fatalf("n=%d trace %v != Σλ %v", n, tr, se)
		}
	}
}

func TestTridiagEigMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 3, 8, 25, 60} {
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = rng.NormFloat64() * 3
		}
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		eig, Z, err := TridiagEig(d, e, true)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Build the dense tridiagonal and compare with Jacobi.
		m := NewDense(n)
		for i := 0; i < n; i++ {
			m.Set(i, i, d[i])
			if i+1 < n {
				m.Set(i, i+1, e[i])
				m.Set(i+1, i, e[i])
			}
		}
		jeig, _ := SymEig(m)
		for i := range eig {
			if math.Abs(eig[i]-jeig[i]) > 1e-9*(1+math.Abs(jeig[i])) {
				t.Fatalf("n=%d eig[%d]: QL %v vs Jacobi %v", n, i, eig[i], jeig[i])
			}
		}
		// Residuals of eigenvectors.
		av := make([]float64, n)
		v := make([]float64, n)
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				v[i] = Z.At(i, k)
			}
			m.MulVec(v, av)
			Axpy(-eig[k], v, av)
			if r := Nrm2(av); r > 1e-9*(1+math.Abs(eig[k])) {
				t.Fatalf("n=%d k=%d tridiag residual %v", n, k, r)
			}
		}
	}
}

func TestTridiagEigKnownSpectrum(t *testing.T) {
	// The tridiagonal of the path-graph Laplacian P_n has eigenvalues
	// 2−2cos(kπ/n) — actually that's T with diag 2 except 1 at ends. Use
	// instead the free tridiagonal toeplitz [1 2 1]: diag=2, off=1 has
	// eigenvalues 2+2cos(kπ/(n+1)), k=1..n.
	n := 10
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = 1
	}
	eig, _, err := TridiagEig(d, e, false)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		want := 2 + 2*math.Cos(float64(n+1-k)*math.Pi/float64(n+1)) // ascending
		if math.Abs(eig[k-1]-want) > 1e-10 {
			t.Fatalf("eig[%d] = %v, want %v", k-1, eig[k-1], want)
		}
	}
}

func TestTridiagEigSizeMismatch(t *testing.T) {
	if _, _, err := TridiagEig([]float64{1, 2}, []float64{}, false); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if eig, _, err := TridiagEig(nil, nil, false); err != nil || len(eig) != 0 {
		t.Fatal("empty input mishandled")
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 5, 20} {
		m := randSPD(n, int64(n)+7)
		g, err := Cholesky(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Check GGᵀ = A.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k <= min(i, j); k++ {
					s += g.At(i, k) * g.At(j, k)
				}
				if math.Abs(s-m.At(i, j)) > 1e-8*(1+math.Abs(m.At(i, j))) {
					t.Fatalf("n=%d GGᵀ[%d,%d] = %v, want %v", n, i, j, s, m.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := NewDense(2)
	m.Set(0, 0, 1)
	m.Set(1, 1, -1)
	if _, err := Cholesky(m); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestMINRESSPD(t *testing.T) {
	n := 30
	m := randSPD(n, 11)
	op := OpFunc{N: n, F: m.MulVec}
	rng := rand.New(rand.NewSource(2))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res := MINRES(op, b, x, MINRESOptions{Tol: 1e-12})
	if !res.Converged {
		t.Fatalf("MINRES did not converge: %+v", res)
	}
	ax := make([]float64, n)
	m.MulVec(x, ax)
	Axpy(-1, b, ax)
	if r := Nrm2(ax); r > 1e-9*Nrm2(b) {
		t.Fatalf("true residual %v", r)
	}
}

// MINRESWS with one reused work bundle must produce the same solution as
// independent MINRES calls — even when recycled buffers held stale values
// from a previous, differently-sized solve.
func TestMINRESWSReusesWork(t *testing.T) {
	var work MINRESWork
	for trial, n := range []int{30, 18, 30} {
		m := randSPD(n, int64(7+trial))
		op := OpFunc{N: n, F: m.MulVec}
		rng := rand.New(rand.NewSource(int64(3 + trial)))
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		fresh := make([]float64, n)
		reused := make([]float64, n)
		rf := MINRES(op, b, fresh, MINRESOptions{Tol: 1e-12})
		rw := MINRESWS(op, b, reused, MINRESOptions{Tol: 1e-12}, &work)
		if rf.Iterations != rw.Iterations || rf.Converged != rw.Converged {
			t.Fatalf("trial %d: results differ: %+v vs %+v", trial, rf, rw)
		}
		for i := range fresh {
			if fresh[i] != reused[i] {
				t.Fatalf("trial %d: solutions differ at %d: %v vs %v", trial, i, fresh[i], reused[i])
			}
		}
	}
}

func TestMINRESIndefinite(t *testing.T) {
	// A diagonal indefinite system: the exact regime of RQI shifts.
	n := 25
	m := NewDense(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, float64(i)-7.5) // eigenvalues straddle zero
	}
	op := OpFunc{N: n, F: m.MulVec}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 / float64(i+1)
	}
	x := make([]float64, n)
	res := MINRES(op, b, x, MINRESOptions{Tol: 1e-12})
	if !res.Converged {
		t.Fatalf("MINRES indefinite did not converge: %+v", res)
	}
	for i := 0; i < n; i++ {
		want := b[i] / m.At(i, i)
		if math.Abs(x[i]-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want)
		}
	}
}

func TestMINRESZeroRHS(t *testing.T) {
	op := OpFunc{N: 4, F: func(x, y []float64) { copy(y, x) }}
	x := []float64{9, 9, 9, 9}
	res := MINRES(op, make([]float64, 4), x, MINRESOptions{})
	if !res.Converged || Nrm2(x) != 0 {
		t.Fatalf("zero rhs: %+v x=%v", res, x)
	}
}

func TestMINRESMaxIter(t *testing.T) {
	// Force early stop with MaxIter=1 on a nontrivial system.
	n := 20
	m := randSPD(n, 5)
	op := OpFunc{N: n, F: m.MulVec}
	b := make([]float64, n)
	b[0] = 1
	b[n-1] = -2
	x := make([]float64, n)
	res := MINRES(op, b, x, MINRESOptions{Tol: 1e-14, MaxIter: 1})
	if res.Converged {
		t.Fatalf("claims convergence after 1 iter: %+v", res)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

func TestDenseMulVec(t *testing.T) {
	m := NewDense(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y := make([]float64, 2)
	m.MulVec([]float64{1, 1}, y)
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
