package envred_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	envred "repro"
)

func TestQuickstartFlow(t *testing.T) {
	g := envred.Grid(20, 10)
	res, err := envred.NewSession(envred.SessionOptions{}).Order(context.Background(), g, envred.AlgSpectral)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Perm
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	s := envred.Stats(g, p)
	if s.Esize <= 0 || s.Bandwidth <= 0 {
		t.Fatalf("stats = %+v", s)
	}
	want := 4 * math.Pow(math.Sin(math.Pi/40), 2)
	if math.Abs(res.Solve.Lambda-want) > 1e-4 {
		t.Fatalf("λ2 = %v, want %v", res.Solve.Lambda, want)
	}
}

func TestAllPublicOrderings(t *testing.T) {
	g := envred.RandomGraph(80, 160, 1)
	for name, f := range map[string]func(*envred.Graph) envred.Perm{
		"RCM": envred.RCM, "CM": envred.CuthillMcKee, "GPS": envred.GPS,
		"GK": envred.GK, "King": envred.King, "Sloan": envred.Sloan,
	} {
		p := f(g)
		if err := p.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestEndToEndSolve(t *testing.T) {
	g := envred.Grid9(15, 15)
	res, err := envred.NewSession(envred.SessionOptions{}).Order(context.Background(), g, envred.AlgSpectral)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Perm
	m, err := envred.NewEnvelopeMatrix(g, p, envred.LaplacianPlusIdentity(g))
	if err != nil {
		t.Fatal(err)
	}
	f, err := envred.Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N())
	for i := range b {
		b[i] = 1
	}
	x := f.SolveOriginal(b)
	// (L+I)x = 1 ⇒ x = 1 is NOT the solution (Lx=0 ⇒ x=1 gives (L+I)1 = 1 ✓).
	// Actually L·1 = 0, so (L+I)·1 = 1: the exact solution IS the ones vector.
	for i, xi := range x {
		if math.Abs(xi-1) > 1e-10 {
			t.Fatalf("x[%d] = %v, want 1", i, xi)
		}
	}
	if f.Flops() <= 0 || f.EnvelopeSize() != envred.Esize(g, p) {
		t.Fatal("factor metadata wrong")
	}
}

func TestMatrixMarketRoundTripPublic(t *testing.T) {
	g := envred.Star(12)
	var buf bytes.Buffer
	if err := envred.WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := envred.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 12 || back.M() != 11 {
		t.Fatalf("round trip: N=%d M=%d", back.N(), back.M())
	}
}

func TestSpyPublic(t *testing.T) {
	g := envred.Path(50)
	art := envred.SpyASCII(g, envred.Identity(50), 10)
	if len(strings.Split(strings.TrimSpace(art), "\n")) != 10 {
		t.Fatal("spy ascii shape wrong")
	}
	var buf bytes.Buffer
	if err := envred.SpyPGM(&buf, g, envred.Identity(50), 16); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P5\n")) {
		t.Fatal("not a PGM")
	}
}

func TestProblemsPublic(t *testing.T) {
	if len(envred.Problems()) != 18 {
		t.Fatal("problem catalogue incomplete")
	}
	spec, ok := envred.ProblemByName("POW9")
	if !ok {
		t.Fatal("POW9 missing")
	}
	p := spec.Generate(0.2, 1)
	if p.G.N() == 0 {
		t.Fatal("empty problem")
	}
}

func TestEnvelopeBoundsPublic(t *testing.T) {
	g := envred.Grid(12, 12)
	ctx := context.Background()
	sess := envred.NewSession(envred.SessionOptions{})
	_, solve, err := sess.Fiedler(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	b := envred.EnvelopeBounds(g.N(), g.MaxDegree(), solve.Lambda, envred.GershgorinBound(g))
	res, _ := sess.Order(ctx, g, envred.AlgSpectral)
	es := float64(envred.Esize(g, res.Perm))
	if es < b.EsizeLower {
		t.Fatalf("achieved envelope %v below the λ2 lower bound %v", es, b.EsizeLower)
	}
	if b.EsizeLower <= 0 || b.EsizeUpper <= b.EsizeLower {
		t.Fatalf("degenerate bounds %+v", b)
	}
}

func TestFrontwidthsPublic(t *testing.T) {
	g := envred.Grid(10, 10)
	p := envred.RCM(g)
	var sum int64
	for _, f := range envred.Frontwidths(g, p) {
		sum += int64(f)
	}
	if sum != envred.Esize(g, p) {
		t.Fatal("frontwidth identity violated through public API")
	}
}
