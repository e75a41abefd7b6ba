package core

import (
	"context"
	"testing"

	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/scratch"
)

// disconnectedFixture builds a graph with three nontrivial components (two
// grids and a path) plus a 2-vertex and a 1-vertex component.
func disconnectedFixture() *graph.Graph {
	b := graph.NewBuilder(6*6 + 4*4 + 10 + 2 + 1)
	off := 0
	for _, side := range []int{6, 4} {
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
	for i := 0; i < 9; i++ {
		b.AddEdge(off+i, off+i+1)
	}
	off += 10
	b.AddEdge(off, off+1)
	return b.Build()
}

// The regression for the duplicated eigensolve: on a disconnected graph
// SpectralSloan must run the eigensolver exactly once per nontrivial
// component — the same count as plain Spectral — not twice, and its matvec
// total must match Spectral's exactly.
func TestSpectralSloanEigensolvesOncePerComponent(t *testing.T) {
	g := disconnectedFixture()
	opt := Options{Seed: 7}

	countSolves := func(f func() (perm.Perm, Info, error)) (int, Info, perm.Perm) {
		solves := 0
		testHookEigensolve = func(int) { solves++ }
		defer func() { testHookEigensolve = nil }()
		p, info, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return solves, info, p
	}

	ctx, ws := context.Background(), scratch.New()
	spectralSolves, spectralInfo, _ := countSolves(func() (perm.Perm, Info, error) { return SpectralWS(ctx, ws, g, opt) })
	sloanSolves, sloanInfo, p := countSolves(func() (perm.Perm, Info, error) { return SpectralSloanWS(ctx, ws, g, opt) })

	// Three components have n > 1 (grids and the path) plus the edge pair;
	// the singleton takes the n==1 fast path with no solve.
	if spectralSolves != 4 {
		t.Fatalf("Spectral ran %d eigensolves, want 4", spectralSolves)
	}
	if sloanSolves != spectralSolves {
		t.Fatalf("SpectralSloan ran %d eigensolves, Spectral ran %d — the hybrid must not repeat the eigensolve",
			sloanSolves, spectralSolves)
	}
	if sloanInfo.MatVecs != spectralInfo.MatVecs {
		t.Fatalf("SpectralSloan used %d matvecs, Spectral used %d — matvec count must not grow",
			sloanInfo.MatVecs, spectralInfo.MatVecs)
	}
	if spectralInfo.MatVecs == 0 {
		t.Fatal("MatVecs not instrumented (0 recorded)")
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
}

// The hybrid must never lose to plain Spectral on envelope size, and on a
// disconnected graph its result must order every component contiguously
// exactly as the per-component refinement dictates.
func TestSpectralSloanDisconnectedQuality(t *testing.T) {
	g := disconnectedFixture()
	opt := Options{Seed: 3}
	ps, _, err := SpectralWS(context.Background(), scratch.New(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ph, _, err := SpectralSloanWS(context.Background(), scratch.New(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ph.Check(); err != nil {
		t.Fatal(err)
	}
	if eh, es := envelope.Esize(g, ph), envelope.Esize(g, ps); eh > es {
		t.Fatalf("hybrid envelope %d worse than spectral %d", eh, es)
	}
}

// Slicing the global ordering per component must agree with what an
// independent spectral run on the extracted component produces.
func TestSpectralSliceMatchesComponentRun(t *testing.T) {
	g := disconnectedFixture()
	opt := Options{Seed: 5}
	global, _, err := SpectralWS(context.Background(), scratch.New(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	comps := graph.Components(g)
	off := 0
	for ci, comp := range comps {
		seg := global[off : off+len(comp)]
		off += len(comp)
		sub, old := g.Subgraph(comp)
		local, _, err := SpectralWS(context.Background(), scratch.New(), sub, opt)
		if err != nil {
			t.Fatal(err)
		}
		for k := range local {
			if int(seg[k]) != old[local[k]] {
				t.Fatalf("component %d: global slice and component run disagree at position %d", ci, k)
			}
		}
	}
}
