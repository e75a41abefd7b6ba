package mm

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// readerSeeds are inputs on which a byte-level reader could part ways with
// the string-per-line one: Unicode and ASCII white space, invalid UTF-8,
// signs, leading zeros and overlong numbers, every value syntax
// strconv.ParseFloat accepts, comments and blank lines between entries.
var readerSeeds = []string{
	robustBody,
	strings.ReplaceAll(robustBody, "\n", "\r\n"),
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2",
	"%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 1.0\n2 1 1.0\n3 1 4\n",
	"%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n2 1 0.0\n3 2 0.25\n1 1 1.0\n",
	"%%MatrixMarket matrix coordinate complex hermitian\n2 2 2\n1 1 1.0 0.0\n2 1 3.0 4.0\n",
	"%%MatrixMarket matrix coordinate complex hermitian\n3 3 2\n2 1 3.0\n3 2 1 x\n",
	"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 xyz\n",
	"%%MatrixMarket matrix coordinate real symmetric\n-3 -3 0\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n5 5 10\n2 1\n3 1\n",
	"%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n\n  % indented comment\n\t\n3 3 2\n\n% between\n2 1\n   \n3\t2\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n+2 +1\n003 0002\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n-0 1\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n99999999999999999999 1\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n000000000000000000000000000000000000002 1\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n2_0 1\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n9223372036854775807 1\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n9223372036854775808 1\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n-9223372036854775808 1\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n-9223372036854775809 1\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n18446744073709551617 1\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n2 +\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n-- 1\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n+-2 1\n",
	"%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n2 1 0x1p-2\n3 1 1_000\n3 2 inf\n1 1 NaN\n",
	"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1e400\n3 2 -.5E+1\n",
	"%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n2 1 0.0000000000000000000000000000000000000000125\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3\u00852\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n\u00a02 1\u2003\n3 2\u3000\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n\u00a0% comment after a no-break space\n2 1\n3 2\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2\xc21\n3\xe2\x80 2\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2\v1\f\n3\r2\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n2 1 trailing fields are ignored\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n2\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n4 1\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n0x3 3 1\n2 1\n",
	"%%MATRIXMARKET MATRIX COORDINATE PATTERN SYMMETRIC\n2 2 1\n2 1\n",
	"%%MatrixMarKet matrix coordinate pattern symmetric\n2 2 1\n2 1\n",
	"",
	"%%MatrixMarket matrix coordinate pattern symmetric",
}

// FuzzReadMatrixMarketDifferential holds Read to the frozen
// string-per-line reader in both modes: the same inputs accepted, the same
// errors for the rest, and the same CSR and weights when they accept.
func FuzzReadMatrixMarketDifferential(f *testing.F) {
	for _, seed := range readerSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, weighted := range []bool{false, true} {
			assertSameRead(t, data, weighted)
		}
	})
}

// assertSameRead fails t unless Read and frozenRead agree on data.
func assertSameRead(t *testing.T, data []byte, weighted bool) {
	t.Helper()
	const limit = 1 << 16
	g, w, err := Read(bytes.NewReader(data), weighted, limit)
	fg, fw, ferr := frozenRead(bytes.NewReader(data), weighted, limit)
	if fmt.Sprint(err) != fmt.Sprint(ferr) {
		t.Fatalf("weighted=%v: Read err = %v, frozen reader err = %v", weighted, err, ferr)
	}
	if err != nil {
		return
	}
	if !slices.Equal(g.Xadj, fg.Xadj) || !slices.Equal(g.Adj, fg.Adj) {
		t.Fatalf("weighted=%v: Read and the frozen reader built different graphs", weighted)
	}
	if (w == nil) != (fw == nil) {
		t.Fatalf("weighted=%v: weight function nil = %v, frozen nil = %v", weighted, w == nil, fw == nil)
	}
	if w == nil {
		return
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if a, b := w(u, int(v)), fw(u, int(v)); a != b {
				t.Fatalf("weight(%d,%d) = %v, frozen %v", u, v, a, b)
			}
		}
	}
}

func TestReadMatchesFrozenReader(t *testing.T) {
	for i, seed := range readerSeeds {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			for _, weighted := range []bool{false, true} {
				assertSameRead(t, []byte(seed), weighted)
			}
		})
	}
	for _, spec := range gen.Specs() {
		var buf bytes.Buffer
		if err := WriteGraph(&buf, spec.Generate(0.05, 11).G); err != nil {
			t.Fatal(err)
		}
		assertSameRead(t, buf.Bytes(), false)
		assertSameRead(t, buf.Bytes(), true)
	}
}

// WriteGraph must keep writing the bytes the fmt-based writer wrote: the
// client encodes every graph it sends through it.
func TestWriteGraphMatchesFrozenWriter(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"empty":     graph.NewBuilder(0).Build(),
		"singleton": graph.NewBuilder(1).Build(),
		"edgeless":  graph.FromEdges(5, nil),
	}
	for _, spec := range gen.Specs() {
		graphs[spec.Name] = spec.Generate(0.05, 11).G
	}
	graphs["BCSSTK30@0.25"] = mustSpec(t, "BCSSTK30").Generate(0.25, 1993).G
	for name, g := range graphs {
		var got, want bytes.Buffer
		if err := WriteGraph(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := frozenWriteGraph(&want, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteGraph bytes differ from the fmt-based writer's", name)
		}
	}
}

func mustSpec(t testing.TB, name string) gen.Spec {
	spec, ok := gen.ByName(name)
	if !ok {
		t.Fatalf("unknown problem %s", name)
	}
	return spec
}

// patternBody is a Matrix Market pattern file of the path on entries+1
// vertices: one entry line per edge.
func patternBody(entries int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate pattern symmetric\n%d %d %d\n", entries+1, entries+1, entries)
	for i := 1; i <= entries; i++ {
		fmt.Fprintf(&b, "%d %d\n", i+1, i)
	}
	return b.Bytes()
}

// Decoding allocates nothing per entry line: a 100k-entry body costs no
// more allocations than a 1k-entry one plus what the Builder's edge lists
// and the CSR arrays grow by between the two sizes. The collector is off
// while counting, since a cycle the larger body triggers allocates a few
// objects of the runtime's own.
func TestReadAllocsIndependentOfEntryCount(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	read := func(body []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := Read(bytes.NewReader(body), false, 1<<20); err != nil {
				t.Fatal(err)
			}
		})
	}
	build := func(entries int) float64 {
		return testing.AllocsPerRun(5, func() {
			b := graph.NewBuilder(entries + 1)
			for i := 1; i <= entries; i++ {
				b.AddEdge(i, i-1)
			}
			b.Build()
		})
	}
	small, large := read(patternBody(1000)), read(patternBody(100000))
	growth := build(100000) - build(1000)
	if large > small+growth {
		t.Fatalf("100k entries: %v allocs, want ≤ %v (1k entries) + %v (Builder and CSR growth)", large, small, growth)
	}
}
