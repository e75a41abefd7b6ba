package mm

import (
	"strings"
	"testing"
)

func TestReadWeightedReal(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
4 4 6
1 1 4.0
2 1 -2.5
3 2 1.5
4 3 -0.5
3 3 4.0
4 4 4.0
`
	g, w, err := ReadWeighted(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if got := w(0, 1); got != 2.5 {
		t.Errorf("w(0,1) = %v, want 2.5 (absolute value)", got)
	}
	if got := w(1, 0); got != 2.5 {
		t.Errorf("weight not symmetric: %v", got)
	}
	if got := w(1, 2); got != 1.5 {
		t.Errorf("w(1,2) = %v", got)
	}
	if got := w(2, 3); got != 0.5 {
		t.Errorf("w(2,3) = %v", got)
	}
}

func TestReadWeightedPatternUnitWeights(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
3 3 3
2 1
3 1
3 3
`
	g, w, err := ReadWeighted(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d", g.M())
	}
	if w(0, 1) != 1 || w(0, 2) != 1 {
		t.Fatal("pattern weights not unit")
	}
}

func TestReadWeightedZeroEntryGetsPositiveWeight(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
2 1 0.0
3 2 0.25
1 1 1.0
`
	g, w, err := ReadWeighted(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d", g.M())
	}
	// The explicitly-zero stored entry must still get a positive weight
	// (the smallest positive magnitude present: 0.25).
	if got := w(0, 1); got != 0.25 {
		t.Fatalf("w(0,1) = %v, want fallback 0.25", got)
	}
}

func TestReadWeightedComplexUsesModulus(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate complex hermitian
2 2 2
1 1 1.0 0.0
2 1 3.0 4.0
`
	g, w, err := ReadWeighted(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d", g.M())
	}
	if got := w(0, 1); got != 5 {
		t.Fatalf("w = %v, want |3+4i| = 5", got)
	}
}

func TestReadWeightedErrors(t *testing.T) {
	cases := map[string]string{
		"missing value": "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1\n",
		"bad value":     "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 xyz\n",
		"not square":    "%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n",
		"array":         "%%MatrixMarket matrix array real symmetric\n2 2\n",
		"negative size": "%%MatrixMarket matrix coordinate real symmetric\n-3 -3 0\n",
	}
	for name, in := range cases {
		if _, _, err := ReadWeighted(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
