package pipeline

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/laplacian"
)

func textDigest(s string) [sha256.Size]byte { return sha256.Sum256([]byte(s)) }

// The text index finds an interned graph by its digest; a second instance
// of the same content (a text differing only in comments) interns by
// fingerprint and its digest replaces the first, so an entry is indexed
// under one digest, the latest; and eviction and Clear drop the digest
// with its graph.
func TestTextDigestIndex(t *testing.T) {
	cache := NewCache(2)
	g := graph.Grid(5, 5)
	if got, ok := cache.InternDigest(g, textDigest("a")); got != g || ok {
		t.Fatalf("first intern = %p, %v; want the graph itself, not resident", got, ok)
	}
	if got, ok := cache.ByDigest(textDigest("a")); got != g || !ok {
		t.Fatalf("ByDigest = %p, %v; want the interned graph", got, ok)
	}
	if _, ok := cache.ByDigest(textDigest("b")); ok {
		t.Fatal("ByDigest found a text nobody interned")
	}
	twin := graph.Grid(5, 5)
	if got, ok := cache.InternDigest(twin, textDigest("b")); got != g || !ok {
		t.Fatalf("same content, other text: intern = %p, %v; want the resident graph", got, ok)
	}
	if got, _ := cache.ByDigest(textDigest("b")); got != g {
		t.Fatal("the second text's digest does not lead to the resident graph")
	}
	if _, ok := cache.ByDigest(textDigest("a")); ok {
		t.Fatal("the replaced digest still leads to the graph")
	}
	if got, ok := cache.InternDigest(g, textDigest("a")); got != g || !ok {
		t.Fatalf("resident pointer: intern = %p, %v", got, ok)
	}
	for i := 0; i < 3; i++ {
		cache.InternDigest(g, textDigest(fmt.Sprint("comment ", i)))
	}
	if n := len(cache.texts); n != 1 {
		t.Fatalf("%d digests indexed for one graph, want 1", n)
	}
	last := textDigest("comment 2")
	if got, _ := cache.ByDigest(last); got != g {
		t.Fatal("the latest text's digest does not lead to the graph")
	}
	cache.InternDigest(graph.Path(7), textDigest("p7"))
	cache.InternDigest(graph.Path(8), textDigest("p8")) // evicts the grid
	if _, ok := cache.ByDigest(last); ok {
		t.Fatal("a digest outlived its evicted graph")
	}
	if len(cache.texts) != 2 {
		t.Fatalf("%d digests indexed after eviction, want 2", len(cache.texts))
	}
	cache.Clear()
	if _, ok := cache.ByDigest(textDigest("p8")); ok || len(cache.texts) != 0 {
		t.Fatal("Clear left digests behind")
	}
}

// orderAndRemember is Session.Do's cold path: order, score, remember.
func orderAndRemember(t *testing.T, cache *Cache, g *graph.Graph, name string, req OrderRequest) Result {
	t.Helper()
	ord, _ := Lookup(name)
	res, err := Order(context.Background(), g, name, ord, req, cache)
	if err != nil {
		t.Fatal(err)
	}
	res.Stats = envelope.Compute(g, res.Perm)
	cache.Remember(g, name, &req, &res)
	return res
}

// The answer memo hands back copies of exactly what was remembered, under
// exactly the key it was remembered under, only for the pure built-ins,
// and forgets with its graph.
func TestAnswerMemo(t *testing.T) {
	cache := NewCache(1)
	g := graph.Grid(9, 7)
	req := OrderRequest{Seed: 3}
	var res Result
	if cache.Recall(g, AlgSpectral, &req, &res, nil) {
		t.Fatal("recalled an answer for a graph that is not resident")
	}
	want := orderAndRemember(t, cache, g, AlgSpectral, req)
	if !cache.Recall(g, AlgSpectral, &req, &res, nil) {
		t.Fatal("no answer recalled after Remember")
	}
	if !res.Perm.Equal(want.Perm) || res.Stats != want.Stats || *res.Solve != *want.Solve ||
		res.Reversed != want.Reversed || res.Components != want.Components {
		t.Fatal("recalled answer differs from the remembered one")
	}
	res.Perm[0], res.Solve.Lambda = -1, -1 // the caller owns what it got
	var again Result
	cache.Recall(g, AlgSpectral, &req, &again, nil)
	if !again.Perm.Equal(want.Perm) || *again.Solve != *want.Solve {
		t.Fatal("mutating a recalled answer changed the memo")
	}

	other := []struct {
		name string
		req  OrderRequest
	}{
		{AlgSpectralSloan, req},
		{AlgSpectral, OrderRequest{Seed: 4}},
		{AlgSpectral, OrderRequest{Seed: 3, Spectral: core.Options{Method: core.MethodLanczos}}},
	}
	for _, o := range other {
		if cache.Recall(g, o.name, &o.req, &res, nil) {
			t.Fatalf("%s %+v: recalled another key's answer", o.name, o.req)
		}
	}

	unmemoized := []struct {
		name string
		req  OrderRequest
	}{
		{AlgWeighted, OrderRequest{Seed: 3, Weight: func(int, int) float64 { return 1 }}},
		{AlgRCM, OrderRequest{Seed: 3, Weight: func(int, int) float64 { return 1 }}},
		{AlgSpectral, OrderRequest{Seed: 3, Spectral: core.Options{Operator: laplacian.New(g)}}},
		{"TEST-NOT-A-BUILTIN", req},
	}
	for _, u := range unmemoized {
		if _, ok := memoKey(u.name, &u.req); ok {
			t.Fatalf("%s: memoKey admits an order whose answer is not a pure function of its key", u.name)
		}
		cache.Remember(g, u.name, &u.req, &want)
		if cache.Recall(g, u.name, &u.req, &res, nil) {
			t.Fatalf("%s: recalled an unmemoizable order", u.name)
		}
	}

	for seed := int64(10); seed < 10+maxArtifactOptionSets+3; seed++ {
		r := OrderRequest{Seed: seed}
		orderAndRemember(t, cache, g, AlgRCM, r)
	}
	cache.mu.Lock()
	e := cache.entries[g].Value.(*cacheEntry)
	cache.mu.Unlock()
	if n := len(e.answers); n > maxArtifactOptionSets {
		t.Fatalf("%d answers memoized on one graph, want at most %d", n, maxArtifactOptionSets)
	}

	rcm := OrderRequest{Seed: 10 + maxArtifactOptionSets + 2}
	if !cache.Recall(g, AlgRCM, &rcm, &res, nil) {
		t.Fatal("the latest answer was not recalled")
	}
	orderAndRemember(t, cache, graph.Path(12), AlgRCM, rcm) // evicts g
	Order(context.Background(), g, AlgRCM, mustLookup(t, AlgRCM), rcm, cache)
	if cache.Recall(g, AlgRCM, &rcm, &res, nil) {
		t.Fatal("an answer outlived its evicted graph")
	}
	orderAndRemember(t, cache, g, AlgRCM, rcm)
	cache.Clear()
	if cache.Recall(g, AlgRCM, &rcm, &res, nil) {
		t.Fatal("an answer outlived Clear")
	}
}

func mustLookup(t *testing.T, name string) Orderer {
	t.Helper()
	ord, ok := Lookup(name)
	if !ok {
		t.Fatalf("%s is not registered", name)
	}
	return ord
}
