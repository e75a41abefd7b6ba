package mm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// A tiny 4×4 symmetric matrix in genuine Harwell–Boeing layout (RSA,
// lower-triangle column storage):
//
//	[ 2 -1  0  0]
//	[-1  2 -1  0]
//	[ 0 -1  2 -3]
//	[ 0  0 -3  2]
const hbRSA = `Tiny test matrix                                                        TEST1
             5             1             1             2             0
RSA                          4             4             7             0
(13I6)          (16I5)          (4E20.12)
     1     3     5     7     8
    1    2    2    3    3    4    4
  0.200000000000E+01 -0.100000000000E+01  0.200000000000E+01 -0.100000000000E+01
  0.200000000000E+01 -0.300000000000E+01  0.200000000000E+01
`

func TestReadHarwellBoeingRSA(t *testing.T) {
	g, w, err := ReadHarwellBoeing(strings.NewReader(hbRSA))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("N=%d M=%d, want 4, 3", g.N(), g.M())
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %v", e)
		}
	}
	if g.HasEdge(0, 2) {
		t.Error("spurious edge 0-2")
	}
	if got := w(0, 1); got != 1 {
		t.Errorf("w(0,1) = %v, want 1", got)
	}
	if got := w(2, 3); got != 3 {
		t.Errorf("w(2,3) = %v, want |−3| = 3", got)
	}
}

const hbPSA = `Pattern-only matrix                                                     TEST2
             4             1             2             0             0
PSA                          5             5             6             0
(13I6)          (8I3)
     1     3     4     6     7     7
  2  3
  3
  4  5
  5
`

func TestReadHarwellBoeingPattern(t *testing.T) {
	g, w, err := ReadHarwellBoeing(strings.NewReader(hbPSA))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 {
		t.Fatalf("N = %d", g.N())
	}
	// Entries: col1 rows {2,3}, col2 row {3}, col3 rows {4,5}, col4 {5}.
	want := [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}}
	if g.M() != len(want) {
		t.Fatalf("M = %d, want %d", g.M(), len(want))
	}
	for _, e := range want {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %v", e)
		}
	}
	if w(0, 1) != 1 {
		t.Error("pattern weights not unit")
	}
}

func TestReadHarwellBoeingErrors(t *testing.T) {
	cases := map[string]string{
		"elemental": strings.Replace(hbRSA, "RSA", "RSE", 1),
		"truncated": hbRSA[:len(hbRSA)/2],
		"not square": `x
             4             1             1             2             0
RSA                          3             4             7             0
(13I6)          (16I5)          (4E20.12)
`,
		"bad pointers": `x
             4             1             1             2             0
RSA                          2             2             1             0
(13I6)          (16I5)          (4E20.12)
     2     2     2
     1
  0.1E+01
`,
	}
	for name, in := range cases {
		if _, _, err := ReadHarwellBoeing(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseFortranFormat(t *testing.T) {
	cases := map[string]fortranFormat{
		"(13I6)":       {13, 6},
		"(16I5)":       {16, 5},
		"(4E20.12)":    {4, 20},
		"(1P5D16.8)":   {5, 16},
		"(1P,4E20.12)": {4, 20},
		"(I9)":         {1, 9},
		"(10F7.1)":     {10, 7},
	}
	for in, want := range cases {
		got, err := parseFortranFormat(in)
		if err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("%s: got %+v, want %+v", in, got, want)
		}
	}
	for _, bad := range []string{"(A8)", "13I6", "(I)", "()"} {
		if _, err := parseFortranFormat(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestFortranFloat(t *testing.T) {
	cases := map[string]float64{
		"0.2E+01":  2,
		"-1.5D-02": -0.015,
		"3.25":     3.25,
		"1.23+05":  123000,
		"-4.5-01":  -0.45,
	}
	for in, want := range cases {
		got, err := fortranFloat(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-12*(1+want) && diff > 1e-12 {
			t.Errorf("%q: got %v, want %v", in, got, want)
		}
	}
}

// hbHeader returns the first four cards of an HB file of the given type
// and sizes, with no RHS.
func hbHeader(mxtype string, nrow, ncol, nnz int) string {
	return fmt.Sprintf("crafted\n%14d%14d%14d%14d%14d\n%-14s%14d%14d%14d%14d\n(13I6)          (16I5)          (4E20.12)\n",
		3, 1, 1, 1, 0, mxtype, nrow, ncol, nnz, 0)
}

// Short crafted headers once crashed the reader: negative sizes panicked
// in makeslice, a two-billion-column header died of an out-of-memory
// error recover cannot catch, and pointers past nnz indexed out of range.
// Each must now be an error.
func TestReadHarwellBoeingCraftedHeaders(t *testing.T) {
	cases := map[string]string{
		"negative dimensions": hbHeader("RSA", -5, -5, 0),
		"negative nnz":        hbHeader("RSA", 2, 2, -1) + "     1     1     1\n",
		"two billion columns": hbHeader("PSA", 2000000000, 2000000000, 0),
		"pointer past nnz":    hbHeader("PSA", 2, 2, 1) + "     1     9     2\n    1\n",
		"decreasing pointers": hbHeader("PSA", 3, 3, 2) + "     1     3     2     3\n    2    3\n",
		"pointer below one":   hbHeader("PSA", 2, 2, 1) + "     1     0     2\n    2\n",
		"columns past int32":  hbHeader("PSA", 1<<31, 1<<31, 0),
	}
	for name, in := range cases {
		if _, _, err := ReadHarwellBoeing(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzReadHarwellBoeing feeds arbitrary bytes to the Harwell–Boeing
// reader: every input must give an error or a valid graph with a positive
// weight on each edge, never a panic.
func FuzzReadHarwellBoeing(f *testing.F) {
	for _, seed := range []string{
		hbRSA,
		hbPSA,
		strings.Replace(hbRSA, "RSA", "CSA", 1),
		hbHeader("RSA", -5, -5, 0),
		hbHeader("RSA", 2, 2, -1) + "     1     1     1\n",
		hbHeader("PSA", 2000000000, 2000000000, 0),
		hbHeader("PSA", 2, 2, 1) + "     1     9     2\n    1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, weight, err := ReadHarwellBoeing(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("invalid graph: %v", err)
		}
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				if w := weight(u, int(v)); !(w > 0) {
					t.Fatalf("weight(%d,%d) = %v, want > 0", u, v, w)
				}
			}
		}
	})
}
