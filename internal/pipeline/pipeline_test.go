package pipeline

import (
	"context"
	"testing"
	"time"

	"repro/internal/envelope"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/perm"
)

func mustAuto(t *testing.T, g *graph.Graph, opt Options) (perm.Perm, Report) {
	t.Helper()
	p, rep, err := Auto(context.Background(), g, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Check(); err != nil {
		t.Fatalf("invalid permutation: %v", err)
	}
	return p, rep
}

func TestAutoEmptyGraph(t *testing.T) {
	p, rep := mustAuto(t, graph.FromEdges(0, nil), Options{})
	if len(p) != 0 {
		t.Fatalf("got %d entries for empty graph", len(p))
	}
	if len(rep.Components) != 0 || rep.Stats.Esize != 0 {
		t.Fatalf("unexpected report %+v", rep)
	}
}

func TestAutoSingleVertex(t *testing.T) {
	p, rep := mustAuto(t, graph.FromEdges(1, nil), Options{})
	if len(p) != 1 || p[0] != 0 {
		t.Fatalf("got %v", p)
	}
	if len(rep.Components) != 1 || rep.Components[0].Winner != AlgTrivial {
		t.Fatalf("unexpected report %+v", rep)
	}
}

func TestAutoPathIsOptimal(t *testing.T) {
	// The optimal envelope of a path on n vertices is n-1 (each row after
	// the first has width exactly 1).
	const n = 64
	g := graph.Path(n)
	p, rep := mustAuto(t, g, Options{Seed: 1})
	if es := envelope.Esize(g, p); es != n-1 {
		t.Fatalf("path envelope %d, want %d", es, n-1)
	}
	if len(rep.Components) != 1 {
		t.Fatalf("path split into %d components", len(rep.Components))
	}
	if rep.Wins[rep.Components[0].Winner] != 1 {
		t.Fatalf("wins table inconsistent: %+v", rep.Wins)
	}
}

// disconnected builds a graph with many components of mixed type: grids,
// paths, cycles, an edge and isolated vertices.
func disconnected() *graph.Graph {
	parts := []*graph.Graph{
		graph.Grid(9, 7),
		graph.Path(40),
		graph.Cycle(25),
		graph.Grid(5, 5),
		graph.FromEdges(2, [][2]int{{0, 1}}),
		graph.FromEdges(3, nil), // three isolated vertices
	}
	total := 0
	for _, p := range parts {
		total += p.N()
	}
	b := graph.NewBuilder(total)
	off := 0
	for _, p := range parts {
		for _, e := range p.Edges() {
			b.AddEdge(off+e[0], off+e[1])
		}
		off += p.N()
	}
	return b.Build()
}

func TestAutoManyComponents(t *testing.T) {
	g := disconnected()
	p, rep := mustAuto(t, g, Options{Seed: 3, Parallelism: 4})
	if want := 8; len(rep.Components) != want {
		t.Fatalf("got %d components, want %d", len(rep.Components), want)
	}
	// Every component must occupy a contiguous block of positions, in
	// decreasing size order.
	inv := p.Inverse()
	comps := graph.Components(g)
	pos := 0
	for ci, comp := range comps {
		lo, hi := g.N(), -1
		for _, v := range comp {
			q := int(inv[v])
			if q < lo {
				lo = q
			}
			if q > hi {
				hi = q
			}
		}
		if lo != pos || hi != pos+len(comp)-1 {
			t.Fatalf("component %d not contiguous: positions [%d,%d], want [%d,%d]",
				ci, lo, hi, pos, pos+len(comp)-1)
		}
		pos += len(comp)
	}
	// The report's per-component stats must add up to the global envelope
	// (components don't interact when kept contiguous).
	var sum int64
	for _, cr := range rep.Components {
		sum += cr.Stats.Esize
	}
	if sum != rep.Stats.Esize {
		t.Fatalf("component envelopes sum to %d, global is %d", sum, rep.Stats.Esize)
	}
	if rep.Stats.Esize != envelope.Esize(g, p) {
		t.Fatalf("report stats %d != recomputed %d", rep.Stats.Esize, envelope.Esize(g, p))
	}
}

func TestAutoDeterministicAcrossParallelism(t *testing.T) {
	g := disconnected()
	for _, seed := range []int64{1, 7} {
		p1, _ := mustAuto(t, g, Options{Seed: seed, Parallelism: 1})
		p8, _ := mustAuto(t, g, Options{Seed: seed, Parallelism: 8})
		if !p1.Equal(p8) {
			t.Fatalf("seed %d: -parallel 1 and -parallel 8 orderings differ", seed)
		}
	}
}

func TestAutoNeverWorseThanSingleAlgorithms(t *testing.T) {
	g := disconnected()
	p, _ := mustAuto(t, g, Options{Seed: 5})
	auto := envelope.Esize(g, p)
	for name, f := range map[string]func(*graph.Graph) perm.Perm{
		"RCM":   order.RCM,
		"GK":    order.GK,
		"Sloan": order.Sloan,
	} {
		if single := envelope.Esize(g, f(g)); auto > single {
			t.Errorf("Auto envelope %d worse than %s %d", auto, name, single)
		}
	}
}

func TestAutoCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Auto(ctx, graph.Grid(30, 30), Options{}, nil)
	if err != context.Canceled {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
}

func TestAutoBudgetStillValid(t *testing.T) {
	// An already-expired budget must still produce a valid ordering via
	// the fallback (first portfolio entry).
	g := disconnected()
	p, rep, err := Auto(context.Background(), g, Options{Seed: 2, Budget: time.Nanosecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	for _, cr := range rep.Components {
		if cr.Winner == AlgTrivial {
			continue
		}
		if len(cr.Candidates) == 0 || cr.Candidates[0].Skipped {
			t.Fatalf("fallback was skipped on component %d: %+v", cr.Index, cr.Candidates)
		}
	}
}

func TestAutoUnknownAlgorithm(t *testing.T) {
	_, _, err := Auto(context.Background(), graph.Path(4), Options{Portfolio: []string{"NOPE"}}, nil)
	if err == nil {
		t.Fatal("expected error for unknown portfolio algorithm")
	}
}

func TestAutoCustomPortfolio(t *testing.T) {
	g := graph.Grid(10, 10)
	p, rep, err := Auto(context.Background(), g, Options{Portfolio: []string{AlgKing, AlgGPS}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	w := rep.Components[0].Winner
	if w != AlgKing && w != AlgGPS {
		t.Fatalf("winner %q not in custom portfolio", w)
	}
}

// TestAutoSuiteAcceptance is the PR's acceptance gate: on every generated
// suite problem, Auto's envelope is no worse than the best of RCM, GK,
// Sloan and Spectral run individually, and the result is identical across
// worker counts.
func TestAutoSuiteAcceptance(t *testing.T) {
	const scale, seed = 0.05, 11
	for _, spec := range gen.Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			g := spec.Generate(scale, seed).G
			p1, _ := mustAuto(t, g, Options{Seed: seed, Parallelism: 1})
			p8, _ := mustAuto(t, g, Options{Seed: seed, Parallelism: 8})
			if !p1.Equal(p8) {
				t.Fatal("ordering differs between -parallel 1 and -parallel 8")
			}
			auto := envelope.Esize(g, p1)
			singles := map[string]int64{
				"RCM":   envelope.Esize(g, order.RCM(g)),
				"GK":    envelope.Esize(g, order.GK(g)),
				"Sloan": envelope.Esize(g, order.Sloan(g)),
			}
			if sp, _, err := Auto(context.Background(), g, Options{Seed: seed, Portfolio: []string{AlgSpectral}}, nil); err == nil {
				singles["Spectral"] = envelope.Esize(g, sp)
			}
			for name, es := range singles {
				if auto > es {
					t.Errorf("Auto envelope %d worse than %s %d", auto, name, es)
				}
			}
		})
	}
}
