package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/laplacian"
	"repro/internal/linalg"
)

// Weighted Laplacian spectral facts: a path with uniform weight w has
// λ2 = 4w·sin²(π/2n).
func TestWeightedLaplacianScaling(t *testing.T) {
	g := graph.Path(20)
	for _, w := range []float64{0.5, 2, 7.25} {
		op, err := laplacian.NewWeighted(g, func(u, v int) float64 { return w })
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 20)
		for i := range x {
			x[i] = math.Cos((float64(i) + 0.5) * math.Pi / 20)
		}
		linalg.ProjectOutOnes(x)
		want := 4 * w * math.Pow(math.Sin(math.Pi/40), 2)
		if got := op.RayleighQuotient(x); math.Abs(got-want) > 1e-10*(1+want) {
			t.Fatalf("w=%v: RQ = %v, want %v", w, got, want)
		}
		// Apply consistency: RQ computed both ways agrees.
		y := make([]float64, 20)
		op.Apply(x, y)
		rq := linalg.Dot(x, y) / linalg.Dot(x, x)
		if math.Abs(rq-want) > 1e-10*(1+want) {
			t.Fatalf("w=%v: Apply-based RQ = %v, want %v", w, rq, want)
		}
	}
}

func TestWeightedGershgorin(t *testing.T) {
	g := graph.Star(6)
	op, err := laplacian.NewWeighted(g, func(u, v int) float64 { return 3 })
	if err != nil {
		t.Fatal(err)
	}
	// Center weighted degree = 15; bound = 30 ≥ λn = 3·6 = 18.
	if b := op.GershgorinBound(); b != 30 {
		t.Fatalf("bound = %v", b)
	}
}
