package mm

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestReadSymmetricPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
% a comment line
4 4 6
1 1
2 1
2 2
3 2
4 4
4 3
`
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %v", e)
		}
	}
}

func TestReadRealValuesIgnored(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 2.5
2 1 -1.0e0
3 2 7
3 3 1.25
`
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
}

func TestReadGeneralSymmetrizes(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
3 3 3
1 2 1.0
2 1 1.0
3 1 4
`
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(0, 2) {
		t.Fatalf("general symmetrization wrong: M=%d", g.M())
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"not mm":        "garbage\n1 1 0\n",
		"array format":  "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n",
		"not square":    "%%MatrixMarket matrix coordinate pattern symmetric\n3 4 0\n",
		"out of range":  "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n3 1\n",
		"short entries": "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 5\n1 1\n2 1\n",
		"bad size line": "%%MatrixMarket matrix coordinate pattern symmetric\nx y z\n",
		"negative size": "%%MatrixMarket matrix coordinate pattern symmetric\n-3 -3 0\n",
		"over int32":    "%%MatrixMarket matrix coordinate pattern symmetric\n2147483648 2147483648 0\n",
	}
	for name, in := range cases {
		if _, err := ReadGraph(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The caller's vertex limit is refused before the vertices are built.
	in := "%%MatrixMarket matrix coordinate pattern symmetric\n2147483647 2147483647 0\n"
	if _, _, err := Read(strings.NewReader(in), false, 1000); !errors.Is(err, ErrTooManyVertices) {
		t.Errorf("n above the limit: err = %v, want ErrTooManyVertices", err)
	}
}

func TestRoundTrip(t *testing.T) {
	orig := graph.Random(40, 80, 9)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != orig.N() || back.M() != orig.M() {
		t.Fatalf("round trip size: %d/%d vs %d/%d", back.N(), back.M(), orig.N(), orig.M())
	}
	for v := 0; v < orig.N(); v++ {
		a, b := orig.Neighbors(v), back.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
}

func TestReadNoTrailingNewline(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n1 1\n2 1"
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d", g.M())
	}
}
