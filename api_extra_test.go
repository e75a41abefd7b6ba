package envred_test

import (
	"context"
	"math"
	"strings"
	"testing"

	envred "repro"
)

func TestLDLPublicPath(t *testing.T) {
	g := envred.Grid(9, 9)
	p := envred.RCM(g)
	m, err := envred.NewEnvelopeMatrix(g, p, envred.LaplacianPlusIdentity(g))
	if err != nil {
		t.Fatal(err)
	}
	f, err := envred.FactorizeLDL(m)
	if err != nil {
		t.Fatal(err)
	}
	pos, neg, zero := f.Inertia()
	if pos != g.N() || neg != 0 || zero != 0 {
		t.Fatalf("SPD inertia = (%d,%d,%d)", pos, neg, zero)
	}
	b := make([]float64, g.N())
	for i := range b {
		b[i] = 1
	}
	x := f.SolveOriginal(b)
	for i, xi := range x {
		if math.Abs(xi-1) > 1e-10 {
			t.Fatalf("x[%d] = %v", i, xi)
		}
	}
}

func TestWeightedSpectralPublicPath(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
6 6 8
1 1 2
2 1 -3
3 2 -3
4 3 -0.1
5 4 -3
6 5 -3
5 5 2
6 6 2
`
	g, w, err := envred.ReadMatrixMarketWeighted(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	res, err := envred.NewSession(envred.SessionOptions{Seed: 1}).OrderWeighted(context.Background(), g, envred.AlgWeighted, w)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Perm
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Info.Lambda2 <= 0 {
		t.Fatalf("λ2 = %v", res.Info.Lambda2)
	}
	// The weak middle link means the two triples {0,1,2} and {3,4,5} are
	// each strongly coupled: each must be contiguous in the ordering.
	inv := p.Inverse()
	span := func(vs ...int) int {
		min, max := 1<<30, -1
		for _, v := range vs {
			if int(inv[v]) < min {
				min = int(inv[v])
			}
			if int(inv[v]) > max {
				max = int(inv[v])
			}
		}
		return max - min
	}
	if span(0, 1, 2) != 2 || span(3, 4, 5) != 2 {
		t.Fatalf("weakly-linked groups interleaved: spans %d, %d", span(0, 1, 2), span(3, 4, 5))
	}
}

func TestPCGPublicPath(t *testing.T) {
	g := envred.Grid9(12, 12)
	p := envred.GK(g)
	a, err := envred.NewSparseMatrix(g, p, envred.LaplacianPlusIdentity(g))
	if err != nil {
		t.Fatal(err)
	}
	f, err := envred.FactorizeIC0(a, envred.IC0Options{MaxShiftRetries: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N())
	b[0] = 1
	x := make([]float64, g.N())
	res := envred.PCG(a, f, b, x, envred.PCGOptions{Tol: 1e-9})
	if !res.Converged {
		t.Fatalf("PCG: %+v", res)
	}
	// Verify via matvec.
	ax := make([]float64, g.N())
	a.Apply(x, ax)
	var diff float64
	for i := range ax {
		d := ax[i] - b[i]
		diff += d * d
	}
	if math.Sqrt(diff) > 1e-8 {
		t.Fatalf("residual %v", math.Sqrt(diff))
	}
}

func TestSpectralSloanPublic(t *testing.T) {
	g := envred.RandomGraph(120, 260, 3)
	sess := envred.NewSession(envred.SessionOptions{Seed: 3})
	ph, err := sess.Order(context.Background(), g, envred.AlgSpectralSloan)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sess.Order(context.Background(), g, envred.AlgSpectral)
	if err != nil {
		t.Fatal(err)
	}
	if envred.Esize(g, ph.Perm) > envred.Esize(g, ps.Perm) {
		t.Fatal("hybrid worse than plain spectral")
	}
}
