package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/lanczos"
	"repro/internal/perm"
	"repro/internal/scratch"
)

func TestRegisterValidation(t *testing.T) {
	noop := OrdererFunc(func(context.Context, *graph.Graph, *OrderRequest) (Result, error) {
		return Result{}, nil
	})
	if err := Register("", noop); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := Register("   ", noop); err == nil {
		t.Fatal("blank name accepted")
	}
	if err := Register("nil-orderer-test", nil); err == nil {
		t.Fatal("nil Orderer accepted")
	}
	// The registry is append-only and process-global, so under
	// go test -count=N the first registration exists from the prior run.
	if err := Register("dup-test-alg", noop); err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("first registration failed: %v", err)
	}
	if err := Register("DUP-TEST-ALG", noop); err == nil {
		t.Fatal("duplicate (case-insensitive) registration accepted")
	} else if !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate error %q does not say so", err)
	}
	// Built-in names are taken too.
	if err := Register("rcm", noop); err == nil {
		t.Fatal("shadowing a built-in accepted")
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	for _, name := range []string{"RCM", "rcm", "Rcm", " spectral+sloan "} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) missed", name)
		}
	}
	if _, ok := Lookup("definitely-not-registered"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
}

func TestAlgorithmsSortedAndComplete(t *testing.T) {
	names := Algorithms()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Algorithms() not sorted: %v", names)
	}
	want := []string{AlgRCM, AlgCM, AlgGPS, AlgGK, AlgKing, AlgSloan, AlgSpectral, AlgSpectralSloan, AlgWeighted}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("built-in %s missing from Algorithms(): %v", w, names)
		}
	}
}

func TestPortfolioNormalizesAndListsOnError(t *testing.T) {
	names, err := Portfolio(Options{Portfolio: []string{"rcm", "Sloan", "SPECTRAL"}})
	if err != nil {
		t.Fatal(err)
	}
	if names[0] != AlgRCM || names[1] != AlgSloan || names[2] != AlgSpectral {
		t.Fatalf("names not canonicalized: %v", names)
	}
	_, err = Portfolio(Options{Portfolio: []string{"NOPE"}})
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	if !strings.Contains(err.Error(), AlgRCM) || !strings.Contains(err.Error(), AlgSpectralSloan) {
		t.Fatalf("unknown-name error %q does not list the registered algorithms", err)
	}
}

// optimalStar orders small star-with-chord components exactly (hub in the
// middle), beating every level-structure built-in; on anything else it
// declines with an error. Registered once for the whole test binary.
var optimalStarRegistered = func() bool {
	MustRegister("TEST-STAR", OrdererFunc(func(ctx context.Context, g *graph.Graph, req *OrderRequest) (Result, error) {
		n := g.N()
		if n > 9 {
			return Result{}, fmt.Errorf("test-star: too big (n=%d)", n)
		}
		// Exhaustive search over the engine's full (envelope, bandwidth,
		// work) score — exact, hence never strictly beaten, and as the
		// portfolio's first entry it keeps ties.
		better := func(a, b envelope.Stats) bool {
			if a.Esize != b.Esize {
				return a.Esize < b.Esize
			}
			if a.Bandwidth != b.Bandwidth {
				return a.Bandwidth < b.Bandwidth
			}
			return a.Ework < b.Ework
		}
		best := perm.Identity(n)
		bestS := envelope.Compute(g, best)
		cur := perm.Identity(n)
		var walk func(k int)
		walk = func(k int) {
			if k == n {
				if s := envelope.Compute(g, cur); better(s, bestS) {
					bestS = s
					copy(best, cur)
				}
				return
			}
			for i := k; i < n; i++ {
				cur[k], cur[i] = cur[i], cur[k]
				walk(k + 1)
				cur[k], cur[i] = cur[i], cur[k]
			}
		}
		walk(0)
		return Result{Perm: best}, nil
	}))
	return true
}()

// starsAndGrid builds one big grid component plus several 7-vertex stars —
// components the exhaustive custom orderer handles and wins.
func starsAndGrid() *graph.Graph {
	grid := graph.Grid(10, 8)
	b := graph.NewBuilder(grid.N() + 3*7)
	for _, e := range grid.Edges() {
		b.AddEdge(e[0], e[1])
	}
	off := grid.N()
	for c := 0; c < 3; c++ {
		for leaf := 1; leaf < 7; leaf++ {
			b.AddEdge(off, off+leaf)
		}
		b.AddEdge(off+1, off+2)
		off += 7
	}
	return b.Build()
}

// The acceptance gate for the pluggable registry: a user-registered
// Orderer races in Auto with everything the built-ins get and wins the
// components it is best at.
func TestCustomOrdererWinsComponentsInAuto(t *testing.T) {
	_ = optimalStarRegistered
	g := starsAndGrid()
	portfolio := append([]string{"TEST-STAR"}, DefaultPortfolio()...)
	p, rep, err := Auto(context.Background(), g, Options{Seed: 3, Portfolio: portfolio, Parallelism: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if rep.Wins["TEST-STAR"] < 3 {
		t.Fatalf("custom orderer won %d components, want the 3 stars; wins=%v", rep.Wins["TEST-STAR"], rep.Wins)
	}
	// The big component is beyond the custom orderer: its error is
	// recorded on the candidate, not fatal to the run.
	big := rep.Components[0]
	found := false
	for _, c := range big.Candidates {
		if c.Algorithm == "TEST-STAR" {
			found = true
			if c.Err == "" {
				t.Fatal("custom orderer's decline on the big component not recorded")
			}
		}
	}
	if !found {
		t.Fatal("custom candidate missing from the big component's report")
	}
	// Determinism holds with a custom orderer in the race.
	p1, _, err := Auto(context.Background(), g, Options{Seed: 3, Portfolio: portfolio, Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(p1) {
		t.Fatal("custom portfolio not deterministic across parallelism")
	}
}

// testBlockRegistered registers the blocking orderer once per process —
// the registry is append-only, so go test -count=N must not re-register.
// It simulates a long eigensolve that honors cancellation: blocks until
// the engine's budget context expires.
var testBlockRegistered = func() bool {
	MustRegister("TEST-BLOCK", OrdererFunc(func(ctx context.Context, g *graph.Graph, req *OrderRequest) (Result, error) {
		<-ctx.Done()
		return Result{}, ctx.Err()
	}))
	return true
}()

// Budget expiry must interrupt candidates that are already running — the
// blocking candidate observes its deadline context — while the fallback
// completes and wins.
func TestBudgetInterruptsRunningCandidate(t *testing.T) {
	_ = testBlockRegistered
	g := graph.Grid(12, 9)
	start := time.Now()
	p, rep, err := Auto(context.Background(), g, Options{
		Seed:      1,
		Portfolio: []string{AlgRCM, "TEST-BLOCK"},
		Budget:    100 * time.Millisecond,
	}, nil)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("budget did not interrupt the running candidate (took %v)", elapsed)
	}
	cr := rep.Components[0]
	if cr.Winner != AlgRCM {
		t.Fatalf("winner %s, want the %s fallback", cr.Winner, AlgRCM)
	}
	var blocked *Candidate
	for i := range cr.Candidates {
		if cr.Candidates[i].Algorithm == "TEST-BLOCK" {
			blocked = &cr.Candidates[i]
		}
	}
	if blocked == nil {
		t.Fatal("blocking candidate missing from report")
	}
	if blocked.Skipped || blocked.Err == "" {
		t.Fatalf("blocking candidate should have been cancelled mid-run: %+v", *blocked)
	}
	if !strings.Contains(blocked.Err, context.DeadlineExceeded.Error()) {
		t.Fatalf("cancelled candidate error %q does not carry the deadline cause", blocked.Err)
	}
}

// A caller whose context expires while waiting behind another caller's
// in-flight solve on the same Artifacts gives up promptly with
// ErrCancelled instead of blocking out its deadline.
func TestArtifactsLockHonorsContext(t *testing.T) {
	g := graph.Grid(12, 9)
	art := newArtifacts(g, spectralOpt(Options{Seed: 2}), nil)
	ws := scratch.Get()
	defer scratch.Put(ws)
	hold := make(chan struct{})
	started := make(chan struct{})
	go func() {
		art.lock() // occupy the solve semaphore, as a long solve would
		close(started)
		<-hold
		art.unlock()
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, _, err := art.Fiedler(ctx, ws)
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("waiter blocked %v past its deadline", elapsed)
	}
	var ce *lanczos.ErrCancelled
	if !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCancelled carrying the deadline, got %v", err)
	}
	close(hold)
	// The semaphore holder's release restores normal service.
	if _, _, err := art.Fiedler(context.Background(), ws); err != nil {
		t.Fatal(err)
	}
}

// A cancelled eigensolve must not poison the artifact cache: the next
// caller (with a live context) retries and succeeds.
func TestArtifactsRetryAfterCancelledSolve(t *testing.T) {
	g := graph.Grid(12, 9)
	art := newArtifacts(g, spectralOpt(Options{Seed: 2}), nil)
	ws := scratch.Get()
	defer scratch.Put(ws)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := art.Fiedler(cancelled, ws); err == nil {
		t.Fatal("cancelled solve succeeded")
	} else if !isCancelled(err) {
		t.Fatalf("err %v not a cancellation", err)
	}
	x, st, err := art.Fiedler(context.Background(), ws)
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if len(x) != g.N() || st.MatVecs == 0 {
		t.Fatalf("retry produced no usable solve: len=%d stats=%+v", len(x), st)
	}
}

// WEIGHTED races in the portfolio when Options.Weight is supplied, with
// per-component relabeling handled by the engine.
func TestWeightedInPortfolio(t *testing.T) {
	g := multiComponentGraph()
	weight := func(u, v int) float64 { return 1 + float64((u+v)%3) }
	p, rep, err := Auto(context.Background(), g, Options{
		Seed:      4,
		Portfolio: []string{AlgRCM, AlgWeighted},
		Weight:    weight,
	}, nil)
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
		for _, c := range cr.Candidates {
			if c.Algorithm == AlgWeighted && c.Err != "" {
				t.Fatalf("component %d: WEIGHTED failed: %s", cr.Index, c.Err)
			}
		}
	}
	// Without a weight function the candidate fails cleanly and the rest
	// of the portfolio covers.
	p2, rep2, err := Auto(context.Background(), g, Options{Seed: 4, Portfolio: []string{AlgRCM, AlgWeighted}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Check(); err != nil {
		t.Fatal(err)
	}
	for _, cr := range rep2.Components {
		for _, c := range cr.Candidates {
			if c.Algorithm == AlgWeighted && c.Err == "" {
				t.Fatal("WEIGHTED without a weight function should record an error")
			}
		}
	}
}

// Cache: a second Auto run on the same graph through the same Cache reuses
// decomposition, subgraphs and eigensolves, and stays byte-identical to
// the uncached run.
func TestCacheReusesArtifactsAcrossRuns(t *testing.T) {
	g := multiComponentGraph()
	cache := NewCache(0)
	opt := Options{Seed: 5}
	var first, second perm.Perm
	solves1 := countEigensolves(func() {
		p, _, err := Auto(context.Background(), g, opt, cache)
		if err != nil {
			t.Fatal(err)
		}
		first = p
	})
	solves2 := countEigensolves(func() {
		p, _, err := Auto(context.Background(), g, opt, cache)
		if err != nil {
			t.Fatal(err)
		}
		second = p
	})
	if solves1 == 0 {
		t.Fatal("first run performed no eigensolves")
	}
	if solves2 != 0 {
		t.Fatalf("second run repeated %d eigensolves despite the cache", solves2)
	}
	if !first.Equal(second) {
		t.Fatal("cached run differs from fresh run")
	}
	uncached, _, err := Auto(context.Background(), g, Options{Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(uncached) {
		t.Fatal("cached run differs from uncached run — caching changed results")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d graphs, want 1", cache.Len())
	}
}

// Cache eviction is LRU-bounded.
func TestCacheEviction(t *testing.T) {
	cache := NewCache(2)
	graphs := []*graph.Graph{graph.Path(30), graph.Path(31), graph.Path(32)}
	for _, g := range graphs {
		if _, _, err := Auto(context.Background(), g, Options{Seed: 1, Portfolio: []string{AlgRCM}}, cache); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d graphs, want capacity 2", cache.Len())
	}
}
