package pipeline

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/store"
)

// storeTestGraph builds a fresh instance of the test graph — distinct
// pointer each call, identical content, so a second "process" never hits
// the pointer-keyed tier 1.
func storeTestGraph() *graph.Graph {
	edges := [][2]int{}
	const side = 8 // 8×8 grid, 64 vertices — big enough for real solves
	id := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				edges = append(edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < side {
				edges = append(edges, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return graph.FromEdges(side*side, edges)
}

// autoThroughStore runs Auto on a fresh graph instance and fresh Cache
// bound to st — the shape of a brand-new process sharing only the store.
func autoThroughStore(t *testing.T, st store.Store, opt Options) []int32 {
	t.Helper()
	cache := NewCache(4)
	cache.SetStore(st)
	if opt.Portfolio == nil {
		opt.Portfolio = []string{"RCM", "SPECTRAL"}
	}
	p, _, err := Auto(context.Background(), storeTestGraph(), opt, cache)
	if err != nil {
		t.Fatalf("Auto: %v", err)
	}
	return p
}

// TestStoreWarmRunZeroSolves is the tentpole contract at pipeline level: a
// run through a fresh Cache (new graph pointer — a "new process") bound to
// a store warmed by an earlier run performs zero eigensolves and returns
// the byte-identical permutation.
func TestStoreWarmRunZeroSolves(t *testing.T) {
	st := store.NewMem(0)
	defer st.Close()

	var coldPerm, warmPerm []int32
	cold := countEigensolves(func() {
		coldPerm = autoThroughStore(t, st, Options{Seed: 7})
	})
	if cold == 0 {
		t.Fatal("cold run performed no eigensolves — test graph too small?")
	}
	if n, err := st.Len(); err != nil || n == 0 {
		t.Fatalf("store empty after cold run (len=%d, err=%v)", n, err)
	}

	warm := countEigensolves(func() {
		warmPerm = autoThroughStore(t, st, Options{Seed: 7})
	})
	if warm != 0 {
		t.Errorf("warm run performed %d eigensolves, want 0", warm)
	}
	if len(warmPerm) != len(coldPerm) {
		t.Fatalf("perm length mismatch: %d vs %d", len(warmPerm), len(coldPerm))
	}
	for i := range coldPerm {
		if warmPerm[i] != coldPerm[i] {
			t.Fatalf("warm permutation differs from cold at %d: %d vs %d", i, warmPerm[i], coldPerm[i])
		}
	}
}

// TestStoreDifferentOptionsMiss: a warm store serves only the option set it
// was written under — a different seed is a different key and re-solves.
func TestStoreDifferentOptionsMiss(t *testing.T) {
	st := store.NewMem(0)
	defer st.Close()
	run := func(seed int64) int {
		return countEigensolves(func() {
			autoThroughStore(t, st, Options{Seed: seed})
		})
	}
	run(1)
	if n := run(2); n == 0 {
		t.Error("different seed served from store — option digest not in the key?")
	}
	if n := run(1); n != 0 {
		t.Errorf("original seed re-solved %d times, want 0", n)
	}
}

// TestStoreCorruptEntryDegrades: a corrupted store entry must surface as a
// counted error, be dropped, and leave the result identical to a cold run.
func TestStoreCorruptEntryDegrades(t *testing.T) {
	mem := store.NewMem(0)
	defer mem.Close()
	counted := store.NewCounted(mem, nil)

	coldPerm := autoThroughStore(t, counted, Options{Seed: 3})

	key := StoreKeyFor(storeTestGraph(), core.Options{Seed: 3})
	if _, err := mem.Get(key); err != nil {
		t.Fatalf("expected entry at computed key: %v", err)
	}
	if !store.CorruptMemEntry(mem, key, []byte("garbage")) {
		t.Fatal("CorruptMemEntry found nothing")
	}

	before := counted.Stats()
	var warmPerm []int32
	solves := countEigensolves(func() {
		warmPerm = autoThroughStore(t, counted, Options{Seed: 3})
	})
	if solves == 0 {
		t.Error("corrupt entry was served instead of re-solved")
	}
	after := counted.Stats()
	if after.Errors <= before.Errors {
		t.Errorf("corrupt read not counted as error: %+v -> %+v", before, after)
	}
	for i := range coldPerm {
		if warmPerm[i] != coldPerm[i] {
			t.Fatalf("permutation after corrupt-store recovery differs at %d", i)
		}
	}
	// The re-solve rewrote the entry: a third run is warm again.
	if n := countEigensolves(func() {
		autoThroughStore(t, counted, Options{Seed: 3})
	}); n != 0 {
		t.Errorf("store not rewritten after corrupt-entry recovery (%d solves)", n)
	}
}

// TestStoreMismatchedEntryDropped: an entry that decodes but does not fit
// the graph (wrong N) is deleted and re-solved, never served.
func TestStoreMismatchedEntryDropped(t *testing.T) {
	mem := store.NewMem(0)
	defer mem.Close()
	g := storeTestGraph()
	key := StoreKeyFor(g, core.Options{Seed: 5})
	// A valid artifact for a *different* (smaller) graph planted under g's
	// key — as if a buggy writer crossed entries.
	bogus := &store.Artifact{
		N: 3, HasFiedler: true, Fiedler: []float64{0.1, 0.2, 0.3},
		HasSpectral: true, Perm: []int32{2, 1, 0}, Esize: 2,
	}
	if err := mem.Put(key, bogus); err != nil {
		t.Fatal(err)
	}
	solves := countEigensolves(func() {
		autoThroughStore(t, mem, Options{Seed: 5})
	})
	if solves == 0 {
		t.Error("mismatched entry was served instead of re-solved")
	}
	rec, err := mem.Get(key)
	if err != nil {
		t.Fatalf("entry not rewritten after mismatch: %v", err)
	}
	if rec.N != g.N() {
		t.Errorf("rewritten entry has N=%d, want %d", rec.N, g.N())
	}
}

// TestStoreKeyDeterminism: the option digest must be a pure function of
// the identity-bearing options, ignoring per-solve operator plumbing.
func TestStoreKeyDeterminism(t *testing.T) {
	g := storeTestGraph()
	a := StoreKeyFor(g, core.Options{Seed: 9})
	b := StoreKeyFor(storeTestGraph(), core.Options{Seed: 9})
	if a != b {
		t.Error("same graph content + options produced different keys")
	}
	if c := StoreKeyFor(g, core.Options{Seed: 10}); c == a {
		t.Error("different seeds produced the same key")
	}
	withOp := core.Options{Seed: 9}
	withOp.Operator = nil // explicit: operator fields are cleared by artKey
	if d := StoreKeyFor(g, withOp); d != a {
		t.Error("operator field leaked into the option digest")
	}
}
