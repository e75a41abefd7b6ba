package graph

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop, dropped
	b.AddEdge(3, 2)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int32{1}) {
		t.Errorf("Neighbors(0) = %v", got)
	}
	if g.Degree(2) != 1 || !g.HasEdge(2, 3) {
		t.Errorf("edge 2-3 missing")
	}
	if g.HasEdge(2, 2) {
		t.Errorf("self-loop stored")
	}
}

func TestBuilderEmptyAndSingleton(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph N=%d M=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g = NewBuilder(1).Build()
	if g.N() != 1 || g.Degree(0) != 0 {
		t.Fatalf("singleton graph wrong")
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() != 5 {
		t.Fatalf("M = %d, want 5", g.M())
	}
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	orig := Random(40, 60, 1)
	g2 := FromEdges(orig.N(), orig.Edges())
	if !reflect.DeepEqual(orig.Xadj, g2.Xadj) || !reflect.DeepEqual(orig.Adj, g2.Adj) {
		t.Fatal("Edges/FromEdges round trip mismatch")
	}
}

func TestFromCSRValidates(t *testing.T) {
	// Asymmetric adjacency must be rejected.
	if _, err := FromCSR([]int32{0, 1, 1}, []int32{1}); err == nil {
		t.Fatal("asymmetric CSR accepted")
	}
	// Self loop rejected.
	if _, err := FromCSR([]int32{0, 1}, []int32{0}); err == nil {
		t.Fatal("self-loop accepted")
	}
	// Valid tiny graph accepted.
	if _, err := FromCSR([]int32{0, 1, 2}, []int32{1, 0}); err != nil {
		t.Fatalf("valid CSR rejected: %v", err)
	}
}

func TestMaxDegree(t *testing.T) {
	if d := Star(7).MaxDegree(); d != 6 {
		t.Errorf("star max degree = %d, want 6", d)
	}
	if d := NewBuilder(0).Build().MaxDegree(); d != 0 {
		t.Errorf("empty max degree = %d, want 0", d)
	}
	if d := Grid(4, 4).MaxDegree(); d != 4 {
		t.Errorf("grid max degree = %d, want 4", d)
	}
}

func TestHasEdgeProperty(t *testing.T) {
	g := Random(30, 80, 2)
	f := func(a, b uint8) bool {
		u, v := int(a)%g.N(), int(b)%g.N()
		want := false
		if u != v {
			for _, w := range g.Neighbors(u) {
				if int(w) == v {
					want = true
				}
			}
		}
		return g.HasEdge(u, v) == want && g.HasEdge(v, u) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLevelStructurePath(t *testing.T) {
	g := Path(6)
	ls := NewLevelStructure(g, 0)
	if ls.Depth() != 6 {
		t.Fatalf("depth = %d, want 6", ls.Depth())
	}
	if ls.Width() != 1 {
		t.Fatalf("width = %d, want 1", ls.Width())
	}
	for v := 0; v < 6; v++ {
		if int(ls.LevelOf[v]) != v {
			t.Errorf("LevelOf[%d] = %d", v, ls.LevelOf[v])
		}
	}
	// From the middle the depth halves.
	ls = NewLevelStructure(g, 3)
	if ls.Depth() != 4 {
		t.Fatalf("depth from middle = %d, want 4", ls.Depth())
	}
}

func TestLevelStructureGrid(t *testing.T) {
	g := Grid(5, 5)
	ls := NewLevelStructure(g, 0)
	if ls.Depth() != 9 { // manhattan eccentricity of a corner is 8
		t.Fatalf("depth = %d, want 9", ls.Depth())
	}
	if ls.Size() != 25 {
		t.Fatalf("size = %d, want 25", ls.Size())
	}
	// Level l contains exactly the vertices at manhattan distance l.
	for l := 0; l < ls.Depth(); l++ {
		for _, v := range ls.Level(l) {
			x, y := int(v)%5, int(v)/5
			if x+y != l {
				t.Errorf("vertex %d at level %d, manhattan %d", v, l, x+y)
			}
		}
	}
}

func TestLevelStructureLevelsPartition(t *testing.T) {
	g := Random(60, 120, 3)
	ls := NewLevelStructure(g, 7)
	seen := make(map[int32]bool)
	total := 0
	for l := 0; l < ls.Depth(); l++ {
		for _, v := range ls.Level(l) {
			if seen[v] {
				t.Fatalf("vertex %d in two levels", v)
			}
			seen[v] = true
			if int(ls.LevelOf[v]) != l {
				t.Fatalf("LevelOf[%d]=%d but listed in level %d", v, ls.LevelOf[v], l)
			}
			total++
		}
	}
	if total != g.N() {
		t.Fatalf("levels cover %d of %d vertices", total, g.N())
	}
	// Edges connect only same or adjacent levels (BFS level property).
	for _, e := range g.Edges() {
		d := ls.LevelOf[e[0]] - ls.LevelOf[e[1]]
		if d < -1 || d > 1 {
			t.Fatalf("edge %v spans levels %d and %d", e, ls.LevelOf[e[0]], ls.LevelOf[e[1]])
		}
	}
}

func TestDistancesUnreachable(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1) // component {0,1}; 2 and 3 isolated
	g := b.Build()
	d := NewLevelStructure(g, 0).LevelOf
	if d[0] != 0 || d[1] != 1 || d[2] != -1 || d[3] != -1 {
		t.Fatalf("distances = %v", d)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(9)
	// Component A: 0-1-2-3 (size 4), B: 4-5 (2), C: {6} {7} {8} singletons.
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	g := b.Build()
	comps := Components(g)
	if len(comps) != 5 {
		t.Fatalf("got %d components, want 5", len(comps))
	}
	if !reflect.DeepEqual(comps[0], []int{0, 1, 2, 3}) {
		t.Errorf("largest component = %v", comps[0])
	}
	if !reflect.DeepEqual(comps[1], []int{4, 5}) {
		t.Errorf("second component = %v", comps[1])
	}
	// Singletons ordered by label.
	if !reflect.DeepEqual(comps[2], []int{6}) || !reflect.DeepEqual(comps[4], []int{8}) {
		t.Errorf("singletons = %v %v %v", comps[2], comps[3], comps[4])
	}
}

func TestIsConnected(t *testing.T) {
	if !IsConnected(Path(10)) || !IsConnected(NewBuilder(1).Build()) || !IsConnected(NewBuilder(0).Build()) {
		t.Error("connected graphs reported disconnected")
	}
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	if IsConnected(b.Build()) {
		t.Error("disconnected graph reported connected")
	}
}

func TestSubgraph(t *testing.T) {
	g := Grid(4, 4)
	verts := []int{0, 1, 2, 4, 5, 6} // top-left 3x2 block
	sub, old := g.Subgraph(verts)
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if sub.N() != 6 {
		t.Fatalf("sub N = %d", sub.N())
	}
	if sub.M() != 7 { // 3x2 grid has 7 edges
		t.Fatalf("sub M = %d, want 7", sub.M())
	}
	if !reflect.DeepEqual(old, verts) {
		t.Fatalf("old labels = %v", old)
	}
	// Every subgraph edge must exist in g under the label map.
	for _, e := range sub.Edges() {
		if !g.HasEdge(old[e[0]], old[e[1]]) {
			t.Fatalf("subgraph edge %v not in parent", e)
		}
	}
}

func TestPseudoPeripheralPath(t *testing.T) {
	g := Path(15)
	for start := 0; start < 15; start += 7 {
		r, ls := PseudoPeripheral(g, start)
		if r != 0 && r != 14 {
			t.Errorf("start %d: pseudo-peripheral = %d, want an end of the path", start, r)
		}
		if ls.Depth() != 15 {
			t.Errorf("start %d: depth = %d, want 15", start, ls.Depth())
		}
	}
}

func TestPseudoDiameterGrid(t *testing.T) {
	g := Grid(7, 3)
	u, v, lsU, lsV := PseudoDiameter(g, 8)
	if lsU.Depth() != lsV.Depth() {
		t.Errorf("endpoint eccentricities differ: %d vs %d", lsU.Depth(), lsV.Depth())
	}
	// The 7x3 grid's diameter is 6+2=8, so depth must be 9.
	if lsU.Depth() != 9 {
		t.Errorf("pseudo-diameter depth = %d, want 9", lsU.Depth())
	}
	if lsU.LevelOf[v] != int32(lsU.Depth()-1) {
		t.Errorf("v=%d not in the deepest level of u=%d", v, u)
	}
}

func TestPseudoPeripheralEccentricityMonotone(t *testing.T) {
	// The returned vertex's eccentricity must be >= the start's.
	for seed := int64(0); seed < 5; seed++ {
		g := Random(50, 70, seed)
		start := int(seed) * 9 % g.N()
		r, ls := PseudoPeripheral(g, start)
		if ls.Depth()-1 < Eccentricity(g, start) {
			t.Errorf("seed %d: ecc(%d)=%d < ecc(start %d)=%d",
				seed, r, ls.Depth()-1, start, Eccentricity(g, start))
		}
	}
}

func TestValidateRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := Random(100, 200, seed)
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !IsConnected(g) {
			t.Fatalf("seed %d: Random graph not connected", seed)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	edges := Grid(200, 200).Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromEdges(200*200, edges)
	}
}

func BenchmarkBFS(b *testing.B) {
	g := Grid(300, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewLevelStructure(g, 0)
	}
}
