package envred_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	envred "repro"
	"repro/internal/graph"
	"repro/internal/laplacian"
)

// The Orderer contract has one calling mode: every call, through
// Session.Order, OrderBatch or Auto, gets one connected component of at
// least two vertices with Artifacts and Workspace set.
var (
	oneComponentMu    sync.Mutex
	oneComponentCalls int
	oneComponentFault []string
)

var oneComponentRegistered = func() bool {
	envred.MustRegister("TEST-ONE-COMPONENT", envred.OrdererFunc(
		func(ctx context.Context, g *envred.Graph, req *envred.OrderRequest) (envred.Result, error) {
			var fault string
			switch {
			case g.N() < 2 || !graph.IsConnected(g):
				fault = fmt.Sprintf("got a %d-vertex graph that is not one component of two or more vertices", g.N())
			case req.Artifacts == nil:
				fault = "no Artifacts"
			case req.Workspace == nil:
				fault = "no Workspace"
			case req.Artifacts.Root() >= g.N():
				fault = "Artifacts of another graph"
			}
			oneComponentMu.Lock()
			oneComponentCalls++
			if fault != "" {
				oneComponentFault = append(oneComponentFault, fault)
			}
			oneComponentMu.Unlock()
			return envred.Result{Perm: envred.Identity(g.N())}, nil
		}))
	return true
}()

func TestOrderersSeeOneComponent(t *testing.T) {
	_ = oneComponentRegistered
	ctx := context.Background()
	graphs := []*envred.Graph{mixedGraph(), envred.Grid(7, 5), envred.FromEdges(6, nil), envred.FromEdges(2, [][2]int{{0, 1}})}
	cached := envred.NewSession(envred.SessionOptions{Seed: 3})
	bare := envred.NewSession(envred.SessionOptions{Seed: 3, CacheGraphs: -1})
	oneComponentMu.Lock()
	oneComponentCalls, oneComponentFault = 0, nil
	oneComponentMu.Unlock()
	for _, g := range graphs {
		for _, sess := range []*envred.Session{cached, bare} {
			if _, err := sess.Order(ctx, g, "TEST-ONE-COMPONENT"); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.AutoWith(ctx, g, envred.AutoOptions{Seed: 3, Portfolio: []string{envred.AlgRCM, "TEST-ONE-COMPONENT"}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := cached.OrderBatch(ctx, graphs, envred.BatchOptions{Algorithm: "TEST-ONE-COMPONENT", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("batch item %d: %v", i, res[i].Err)
		}
	}
	oneComponentMu.Lock()
	defer oneComponentMu.Unlock()
	if oneComponentCalls == 0 {
		t.Fatal("the probe orderer was never called")
	}
	if len(oneComponentFault) > 0 {
		t.Fatalf("%d of %d calls broke the one-component contract: %v", len(oneComponentFault), oneComponentCalls, oneComponentFault)
	}
}

// SPECTRAL and SPECTRAL+SLOAN on a disconnected graph reuse a caching
// Session's per-component solves, and read and write the store per
// component: a second Session on the same store solves nothing and says
// its solve came from the store.
func TestSessionCachesDisconnectedSolves(t *testing.T) {
	st, err := envred.OpenStore("mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	g := mixedGraph()
	algs := []string{envred.AlgSpectral, envred.AlgSpectralSloan}

	sess := envred.NewSession(envred.SessionOptions{Seed: 5, Store: st})
	want := map[string]envred.Perm{}
	for _, alg := range algs {
		res, err := sess.Order(ctx, g, alg)
		if err != nil {
			t.Fatal(err)
		}
		want[alg] = res.Perm
	}
	for _, alg := range algs {
		var res envred.Result
		if n := countStoreSolves(func() {
			if res, err = sess.Order(ctx, g, alg); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("second %s order of a disconnected graph ran %d eigensolves, want 0", alg, n)
		}
		if !res.Perm.Equal(want[alg]) {
			t.Errorf("second %s order differs from the first", alg)
		}
	}

	other := envred.NewSession(envred.SessionOptions{Seed: 5, Store: st})
	for _, alg := range algs {
		var res envred.Result
		if n := countStoreSolves(func() {
			if res, err = other.Order(ctx, mixedGraph(), alg); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s on a second Session over the same store ran %d eigensolves, want 0", alg, n)
		}
		if res.Solve == nil || !res.Solve.FromStore {
			t.Errorf("%s on a second Session: solve %+v does not say it came from the store", alg, res.Solve)
		}
		if !res.Perm.Equal(want[alg]) {
			t.Errorf("store-warmed %s order differs from the cold one", alg)
		}
	}
}

// Session.Fiedler needs one connected component of at least two vertices:
// a disconnected Laplacian has a multiple zero eigenvalue, and its
// "Fiedler vector" would be a null-space vector.
func TestFiedlerRejectsDisconnected(t *testing.T) {
	ctx := context.Background()
	for _, cache := range []int{0, -1} {
		sess := envred.NewSession(envred.SessionOptions{Seed: 1, CacheGraphs: cache})
		for _, tc := range []struct {
			g     *envred.Graph
			comps string
		}{
			{mixedGraph(), "5 component"},
			{envred.FromEdges(1, nil), "1 component"},
			{envred.FromEdges(0, nil), "0 component"},
		} {
			x, st, err := sess.Fiedler(ctx, tc.g)
			if err == nil {
				t.Fatalf("cache %d: Fiedler of a %d-vertex graph returned λ=%g and no error", cache, tc.g.N(), st.Lambda)
			}
			if x != nil || !strings.Contains(err.Error(), tc.comps) {
				t.Fatalf("cache %d: Fiedler error %q does not name the %ss", cache, err, tc.comps)
			}
		}
		if _, _, err := sess.Fiedler(ctx, envred.FromEdges(2, [][2]int{{0, 1}})); err != nil {
			t.Fatalf("cache %d: Fiedler of a single edge: %v", cache, err)
		}
	}
}

// A caller's finest-level operator describes the caller's whole graph, so
// on disconnected input it reaches no component solve: SPECTRAL and Auto
// return the bytes of the same calls without it.
func TestCallerFinestOpOnDisconnectedInput(t *testing.T) {
	ctx := context.Background()
	g := mixedGraph()
	plain := envred.NewSession(envred.SessionOptions{Seed: 2})
	withOp := envred.SpectralOptions{Seed: 2}
	withOp.Multilevel.FinestOp = laplacian.New(g)
	opSess := envred.NewSession(envred.SessionOptions{Seed: 2, Spectral: withOp})
	for _, alg := range []string{envred.AlgSpectral, envred.AlgSpectralSloan} {
		want, err := plain.Order(ctx, g, alg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := opSess.Order(ctx, g, alg)
		if err != nil {
			t.Fatalf("%s with a caller FinestOp: %v", alg, err)
		}
		if !got.Perm.Equal(want.Perm) {
			t.Fatalf("%s with a caller FinestOp differs from the call without it", alg)
		}
	}
	want, err := plain.Auto(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := opSess.Auto(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range got.Report.Components {
		for _, c := range cr.Candidates {
			if c.Err != "" {
				t.Fatalf("Auto with a caller FinestOp: component %d candidate %s failed: %s", cr.Index, c.Algorithm, c.Err)
			}
		}
	}
	if !got.Perm.Equal(want.Perm) {
		t.Fatal("Auto with a caller FinestOp differs from the call without it")
	}
}

// A cold SPECTRAL order writes its solve to the store once, vector and
// ordering in one record; a Fiedler call writes the vector, and a later
// order upgrades the entry with the ordering.
func TestColdSpectralWritesStoreOnce(t *testing.T) {
	ctx := context.Background()
	puts := func(f func(*envred.Session)) int64 {
		backend, err := envred.OpenStore("mem://")
		if err != nil {
			t.Fatal(err)
		}
		defer backend.Close()
		st := envred.NewCountedStore(backend, nil)
		f(envred.NewSession(envred.SessionOptions{Seed: 1, Store: st}))
		return st.Stats().Puts
	}
	g := envred.Grid(30, 20)
	if n := puts(func(s *envred.Session) {
		if _, err := s.Order(ctx, g, envred.AlgSpectral); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("cold SPECTRAL order made %d store Puts, want 1", n)
	}
	if n := puts(func(s *envred.Session) {
		if _, _, err := s.Fiedler(ctx, g); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Order(ctx, g, envred.AlgSpectral); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("Fiedler then SPECTRAL made %d store Puts, want 2", n)
	}
}
