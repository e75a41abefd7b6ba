package envred_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	envred "repro"
	"repro/internal/core"
)

func countStoreSolves(f func()) int {
	var n int64
	restore := core.SetEigensolveTestHook(func(int) { atomic.AddInt64(&n, 1) })
	defer restore()
	f()
	return int(atomic.LoadInt64(&n))
}

// Two Sessions — two "processes" — sharing one store: the second orders
// the same matrix content (a fresh Graph instance, so tier 1 cannot hit)
// with zero eigensolves and a byte-identical permutation.
func TestSessionStoreWarmAcrossSessions(t *testing.T) {
	st, err := envred.OpenStore("mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()

	var coldPerm envred.Perm
	cold := countStoreSolves(func() {
		sess := envred.NewSession(envred.SessionOptions{Seed: 11, Store: st})
		res, err := sess.Order(ctx, envred.Grid(12, 9), envred.AlgSpectral)
		if err != nil {
			t.Fatal(err)
		}
		coldPerm = res.Perm
	})
	if cold == 0 {
		t.Fatal("cold session performed no eigensolves")
	}

	var warmPerm envred.Perm
	warm := countStoreSolves(func() {
		sess := envred.NewSession(envred.SessionOptions{Seed: 11, Store: st})
		res, err := sess.Order(ctx, envred.Grid(12, 9), envred.AlgSpectral)
		if err != nil {
			t.Fatal(err)
		}
		warmPerm = res.Perm
	})
	if warm != 0 {
		t.Errorf("warm session performed %d eigensolves, want 0", warm)
	}
	if !coldPerm.Equal(warmPerm) {
		t.Error("warm session's permutation differs from the cold one")
	}
}

// The store also serves Session.Fiedler, and a store-backed session is
// created even with tier 1 explicitly disabled.
func TestSessionStoreFiedlerAndDisabledCache(t *testing.T) {
	st, err := envred.OpenStore("fs://" + t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()

	run := func() ([]float64, int) {
		var x []float64
		n := countStoreSolves(func() {
			sess := envred.NewSession(envred.SessionOptions{Seed: 4, CacheGraphs: -1, Store: st})
			var err error
			x, _, err = sess.Fiedler(ctx, envred.Grid(10, 10))
			if err != nil {
				t.Fatal(err)
			}
		})
		return x, n
	}
	x1, n1 := run()
	if n1 == 0 {
		t.Fatal("cold Fiedler performed no eigensolves")
	}
	x2, n2 := run()
	if n2 != 0 {
		t.Errorf("warm Fiedler performed %d eigensolves, want 0", n2)
	}
	if len(x1) != len(x2) {
		t.Fatal("Fiedler vector length changed")
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("store-served Fiedler vector differs at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

// StoreKeyFor matches what the Session writes: a caller can probe the
// store out of band for exactly the entry a session run produced.
func TestStoreKeyForMatchesSessionWrites(t *testing.T) {
	st, err := envred.OpenStore("mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := envred.Grid(9, 9)
	key := envred.StoreKeyFor(g, envred.SpectralOptions{Seed: 2})
	if _, err := st.Get(key); !errors.Is(err, envred.ErrStoreNotFound) {
		t.Fatalf("probe before run: err=%v, want ErrStoreNotFound", err)
	}
	sess := envred.NewSession(envred.SessionOptions{Seed: 2, Store: st})
	if _, err := sess.Order(context.Background(), g, envred.AlgSpectral); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Get(key)
	if err != nil {
		t.Fatalf("probe after run: %v", err)
	}
	if rec.N != g.N() || !rec.HasFiedler {
		t.Errorf("stored record inconsistent: N=%d HasFiedler=%v", rec.N, rec.HasFiedler)
	}
}

// disjointGrids is the disjoint union of a w1×h1 and a w2×h2 grid.
func disjointGrids(w1, h1, w2, h2 int) *envred.Graph {
	a, b := envred.Grid(w1, h1), envred.Grid(w2, h2)
	var edges [][2]int
	for off, g := range map[int]*envred.Graph{0: a, a.N(): b} {
		for v := 0; v < g.N(); v++ {
			for _, u := range g.Adj[g.Xadj[v]:g.Xadj[v+1]] {
				edges = append(edges, [2]int{off + v, off + int(u)})
			}
		}
	}
	return envred.FromEdges(a.N()+b.N(), edges)
}

// A solve record says whether it came from the store: a fresh solve and the
// calls its memo serves do not, while a new session over the same store
// reports FromStore on Order (Solve and Info), Fiedler and AutoWith (the
// report, and the spectral candidates of every component).
func TestSolveFromStore(t *testing.T) {
	st, err := envred.OpenStore("mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	check := func(sess *envred.Session, want bool) {
		t.Helper()
		// Each session parses its own graph instances, as a new process
		// would; the second round reuses them and is served from the memo.
		og, fg, ag := envred.Grid(12, 9), envred.Grid(11, 7), disjointGrids(9, 8, 7, 6)
		for i := 0; i < 2; i++ {
			res, err := sess.Order(ctx, og, envred.AlgSpectral)
			if err != nil {
				t.Fatal(err)
			}
			if res.Solve.FromStore != want || res.Info.Solve.FromStore != want {
				t.Errorf("round %d: Order Solve.FromStore=%v Info.Solve.FromStore=%v, want %v",
					i, res.Solve.FromStore, res.Info.Solve.FromStore, want)
			}
			_, fst, err := sess.Fiedler(ctx, fg)
			if err != nil {
				t.Fatal(err)
			}
			if fst.FromStore != want {
				t.Errorf("round %d: Fiedler FromStore=%v, want %v", i, fst.FromStore, want)
			}
			auto, err := sess.AutoWith(ctx, ag, envred.AutoOptions{Seed: 8})
			if err != nil {
				t.Fatal(err)
			}
			if auto.Report.Eigensolves != 2 || auto.Solve.FromStore != want {
				t.Errorf("round %d: AutoWith consumed %d solves, FromStore=%v; want 2, %v",
					i, auto.Report.Eigensolves, auto.Solve.FromStore, want)
			}
			for _, comp := range auto.Report.Components {
				for _, c := range comp.Candidates {
					if c.Solve != nil && c.Solve.FromStore != want {
						t.Errorf("round %d: component %d %s candidate FromStore=%v, want %v",
							i, comp.Index, c.Algorithm, c.Solve.FromStore, want)
					}
				}
			}
		}
	}
	check(envred.NewSession(envred.SessionOptions{Seed: 8, Store: st}), false)
	check(envred.NewSession(envred.SessionOptions{Seed: 8, Store: st}), true)

	// An AUTO run that reads its larger component's solve from the store
	// and solves the smaller one afresh does not claim the store.
	mixed, err := envred.OpenStore("mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer mixed.Close()
	if _, err := envred.NewSession(envred.SessionOptions{Seed: 8, Store: mixed}).Order(ctx, envred.Grid(9, 8), envred.AlgSpectral); err != nil {
		t.Fatal(err)
	}
	auto, err := envred.NewSession(envred.SessionOptions{Seed: 8, Store: mixed}).AutoWith(ctx, disjointGrids(9, 8, 7, 6), envred.AutoOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Report.Eigensolves != 2 || auto.Solve.FromStore {
		t.Errorf("half-stored AutoWith consumed %d solves, FromStore=%v; want 2, false", auto.Report.Eigensolves, auto.Solve.FromStore)
	}
	for _, comp := range auto.Report.Components {
		for _, c := range comp.Candidates {
			if c.Solve != nil && c.Solve.FromStore != (comp.Index == 0) {
				t.Errorf("half-stored AutoWith: component %d %s candidate FromStore=%v", comp.Index, c.Algorithm, c.Solve.FromStore)
			}
		}
	}
}
