package pipeline

import (
	"context"
	"testing"

	"repro/internal/graph"
)

// multiComponentGraph builds a disconnected mix of grids, paths and random
// components large enough that every portfolio algorithm does real work.
func multiComponentGraph() *graph.Graph {
	total := 12*12 + 9*9 + 40 + 25 + 2 + 1
	b := graph.NewBuilder(total)
	off := 0
	for _, side := range []int{12, 9} {
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				v := off + r*side + c
				if c+1 < side {
					b.AddEdge(v, v+1)
				}
				if r+1 < side {
					b.AddEdge(v, v+side)
				}
			}
		}
		off += side * side
	}
	for i := 0; i < 39; i++ {
		b.AddEdge(off+i, off+i+1)
	}
	off += 40
	// A denser component: cycle plus chords.
	for i := 0; i < 25; i++ {
		b.AddEdge(off+i, off+(i+1)%25)
		b.AddEdge(off+i, off+(i+7)%25)
	}
	off += 25
	b.AddEdge(off, off+1)
	return b.Build()
}

// The engine's determinism contract under the pooled workspaces: for a
// fixed graph, portfolio and seed, Auto with Parallelism 1 and 8 must be
// byte-identical — same permutation, same winners, same candidate stats.
// The CI race job runs this under -race, which also proves the per-worker
// workspaces never share state.
func TestAutoDeterminismPooledWorkspaces(t *testing.T) {
	g := multiComponentGraph()
	run := func(workers int) (string, Report) {
		p, rep, err := Auto(context.Background(), g, Options{Seed: 1993, Parallelism: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return permBytes(p), rep
	}
	p1, rep1 := run(1)
	for trial := 0; trial < 3; trial++ {
		p8, rep8 := run(8)
		if p1 != p8 {
			t.Fatalf("trial %d: Parallelism 1 and 8 orderings differ", trial)
		}
		if len(rep1.Components) != len(rep8.Components) {
			t.Fatalf("trial %d: component counts differ", trial)
		}
		for i := range rep1.Components {
			a, b := rep1.Components[i], rep8.Components[i]
			if a.Winner != b.Winner || a.Stats != b.Stats || a.Size != b.Size {
				t.Fatalf("trial %d: component %d reports differ: %+v vs %+v", trial, i, a, b)
			}
			for j := range a.Candidates {
				ca, cb := a.Candidates[j], b.Candidates[j]
				if ca.Algorithm != cb.Algorithm || ca.Esize != cb.Esize ||
					ca.Bandwidth != cb.Bandwidth || ca.Ework != cb.Ework || ca.Err != cb.Err {
					t.Fatalf("trial %d: candidate %d/%d differs: %+v vs %+v", trial, i, j, ca, cb)
				}
			}
		}
		if rep1.Stats != rep8.Stats {
			t.Fatalf("trial %d: global stats differ: %+v vs %+v", trial, rep1.Stats, rep8.Stats)
		}
	}
}

func permBytes(p []int32) string {
	buf := make([]byte, 0, 4*len(p))
	for _, v := range p {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(buf)
}
