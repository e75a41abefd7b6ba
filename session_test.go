package envred_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	envred "repro"
	"repro/internal/core"
	"repro/internal/lanczos"
	"repro/internal/laplacian"
	"repro/internal/linalg"
	"repro/internal/pipeline"
	"repro/internal/scratch"
)

// lanczosUnreachable keeps the solver restarting until a hook fires.
func lanczosUnreachable(maxBasis int) lanczos.Options {
	return lanczos.Options{Tol: 1e-300, MaxBasis: maxBasis, MaxRestarts: 1000}
}

// mixedGraph builds a disconnected input with components of several
// characters — the session-equivalence and concurrency workload.
func mixedGraph() *envred.Graph {
	parts := []*envred.Graph{
		envred.Grid(11, 7),
		envred.Path(50),
		envred.Cycle(21),
		envred.FromEdges(2, [][2]int{{0, 1}}),
		envred.FromEdges(1, nil),
	}
	total := 0
	for _, p := range parts {
		total += p.N()
	}
	b := envred.NewBuilder(total)
	off := 0
	for _, p := range parts {
		for _, e := range p.Edges() {
			b.AddEdge(off+e[0], off+e[1])
		}
		off += p.N()
	}
	return b.Build()
}

// The session-equivalence golden test: Session calls must stay
// byte-identical to the direct internal paths they dispatch to
// (core.SpectralWS, core.SpectralSloanWS, pipeline.Auto, the classical
// orderings and core.WeightedSpectral) — for fixed seeds, disconnected
// input included.
func TestShimEquivalenceGolden(t *testing.T) {
	g := mixedGraph()
	ctx := context.Background()
	ws := scratch.New()
	for _, seed := range []int64{1, 5} {
		opt := envred.SpectralOptions{Seed: seed}
		sess := envred.NewSession(envred.SessionOptions{Seed: seed})

		wantSpectral, wantInfo, err := core.SpectralWS(ctx, ws, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Order(ctx, g, envred.AlgSpectral)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Perm.Equal(wantSpectral) {
			t.Fatalf("seed %d: Session.Order(SPECTRAL) differs from core.SpectralWS", seed)
		}
		if *res.Info != wantInfo {
			t.Fatalf("seed %d: Session.Order(SPECTRAL) info differs:\n%+v\n%+v", seed, *res.Info, wantInfo)
		}
		if res.Stats != envred.Stats(g, wantSpectral) {
			t.Fatalf("seed %d: Session result stats wrong", seed)
		}

		wantHybrid, _, err := core.SpectralSloanWS(ctx, ws, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		hres, err := sess.Order(ctx, g, envred.AlgSpectralSloan)
		if err != nil {
			t.Fatal(err)
		}
		if !hres.Perm.Equal(wantHybrid) {
			t.Fatalf("seed %d: Session.Order(SPECTRAL+SLOAN) differs from core.SpectralSloanWS", seed)
		}

		aopt := envred.AutoOptions{Seed: seed, Parallelism: 4}
		wantAuto, wantRep, err := pipeline.Auto(ctx, g, aopt, nil)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := sess.AutoWith(ctx, g, aopt)
		if err != nil {
			t.Fatal(err)
		}
		if !sres.Perm.Equal(wantAuto) {
			t.Fatalf("seed %d: Session.AutoWith differs from pipeline.Auto", seed)
		}
		if sres.Report.Stats != wantRep.Stats || len(sres.Report.Components) != len(wantRep.Components) {
			t.Fatalf("seed %d: Session.AutoWith report differs", seed)
		}

		// Classical orderings: Session.Order vs the stateless top-level
		// functions.
		classics := map[string]envred.Perm{
			envred.AlgRCM:   envred.RCM(g),
			envred.AlgCM:    envred.CuthillMcKee(g),
			envred.AlgGPS:   envred.GPS(g),
			envred.AlgGK:    envred.GK(g),
			envred.AlgKing:  envred.King(g),
			envred.AlgSloan: envred.Sloan(g),
		}
		for alg, want := range classics {
			res, err := sess.Order(ctx, g, alg)
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if !res.Perm.Equal(want) {
				t.Fatalf("seed %d: Session.Order(%s) differs from the top-level function", seed, alg)
			}
		}

		// Weighted spectral: Session vs direct core path.
		weight := func(u, v int) float64 { return 1 + float64((u*3+v)%5) }
		wantW, _, err := core.WeightedSpectral(ctx, g, weight, opt)
		if err != nil {
			t.Fatal(err)
		}
		resW, err := sess.OrderWeighted(ctx, g, envred.AlgWeighted, weight)
		if err != nil {
			t.Fatal(err)
		}
		if !resW.Perm.Equal(wantW) {
			t.Fatalf("seed %d: Session.OrderWeighted differs from core path", seed)
		}
	}
}

// One Session shared by many goroutines: every call must return the same
// (deterministic) result its algorithm returns alone. Run under -race this
// also exercises the cache and artifact locking.
func TestSessionConcurrentOrder(t *testing.T) {
	g := mixedGraph()
	sess := envred.NewSession(envred.SessionOptions{Seed: 9})
	ctx := context.Background()
	algs := []string{envred.AlgRCM, envred.AlgSloan, envred.AlgSpectral, envred.AlgSpectralSloan, envred.AlgGK}
	want := map[string]envred.Perm{}
	for _, alg := range algs {
		res, err := sess.Order(ctx, g, alg)
		if err != nil {
			t.Fatal(err)
		}
		want[alg] = res.Perm
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				alg := algs[(w+i)%len(algs)]
				res, err := sess.Order(ctx, g, alg)
				if err != nil {
					errc <- err
					return
				}
				if !res.Perm.Equal(want[alg]) {
					errc <- errors.New(alg + ": concurrent result differs from serial result")
					return
				}
				if _, err := sess.Auto(ctx, g); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// A Session's artifact cache carries eigensolves across calls: the second
// Auto on the same graph re-solves nothing and returns the identical
// permutation.
func TestSessionCachesEigensolvesAcrossCalls(t *testing.T) {
	g := mixedGraph()
	sess := envred.NewSession(envred.SessionOptions{Seed: 3})
	ctx := context.Background()
	count := func(f func()) int {
		var n int64
		restore := core.SetEigensolveTestHook(func(int) { atomic.AddInt64(&n, 1) })
		defer restore()
		f()
		return int(atomic.LoadInt64(&n))
	}
	var first, second envred.Perm
	s1 := count(func() {
		res, err := sess.Auto(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		first = res.Perm
	})
	s2 := count(func() {
		res, err := sess.Auto(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		second = res.Perm
	})
	if s1 == 0 {
		t.Fatal("first Auto performed no eigensolves")
	}
	if s2 != 0 {
		t.Fatalf("second Auto repeated %d eigensolves despite the session cache", s2)
	}
	if !first.Equal(second) {
		t.Fatal("cached Auto differs from fresh Auto")
	}

	// Session.Fiedler is cached the same way (connected graph).
	cg := envred.Grid(15, 11)
	s3 := count(func() {
		if _, _, err := sess.Fiedler(ctx, cg); err != nil {
			t.Fatal(err)
		}
	})
	s4 := count(func() {
		if _, _, err := sess.Fiedler(ctx, cg); err != nil {
			t.Fatal(err)
		}
	})
	if s3 != 1 || s4 != 0 {
		t.Fatalf("Session.Fiedler solves: first=%d second=%d, want 1 then 0", s3, s4)
	}

	// CacheGraphs < 0 disables caching.
	nocache := envred.NewSession(envred.SessionOptions{Seed: 3, CacheGraphs: -1})
	n1 := count(func() {
		if _, err := nocache.Auto(ctx, g); err != nil {
			t.Fatal(err)
		}
	})
	n2 := count(func() {
		if _, err := nocache.Auto(ctx, g); err != nil {
			t.Fatal(err)
		}
	})
	if n1 == 0 || n2 != n1 {
		t.Fatalf("cache-disabled session should re-solve every run: %d then %d", n1, n2)
	}
}

// cancelOp cancels a context after a fixed number of matvecs — the hooked
// operator of the Session cancellation acceptance test.
type cancelOp struct {
	laplacian.Interface
	applies  int32
	cancelAt int32
	cancel   context.CancelFunc
}

func (c *cancelOp) hit() {
	if atomic.AddInt32(&c.applies, 1) == c.cancelAt {
		c.cancel()
	}
}

func (c *cancelOp) Apply(x, y []float64) {
	c.hit()
	c.Interface.Apply(x, y)
}

func (c *cancelOp) ApplyAxpy(x, y []float64, beta float64, z []float64) {
	c.hit()
	c.Interface.ApplyAxpy(x, y, beta, z)
}

var _ linalg.AxpyApplier = (*cancelOp)(nil)

// Cancelling a Session.Order mid-eigensolve returns within one restart
// iteration: the hooked operator cancels after a fixed matvec count and
// the solve must stop at the next restart boundary.
func TestSessionOrderCancelMidEigensolve(t *testing.T) {
	g := envred.Grid(30, 20)
	ctx, cancel := context.WithCancel(context.Background())
	const maxBasis = 24
	op := &cancelOp{Interface: laplacian.New(g), cancelAt: maxBasis + 5, cancel: cancel}
	sess := envred.NewSession(envred.SessionOptions{})
	_, err := sess.Do(ctx, g, envred.AlgSpectral, envred.OrderRequest{
		Seed: 1,
		Spectral: envred.SpectralOptions{
			Seed:     1,
			Method:   envred.MethodLanczos,
			Operator: op,
			Lanczos:  lanczosUnreachable(maxBasis),
		},
	})
	if err == nil {
		t.Fatal("cancelled Session.Order reported success")
	}
	var ce *envred.ErrCancelled
	if !errors.As(err, &ce) {
		t.Fatalf("err %v (%T) is not *envred.ErrCancelled", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v does not unwrap to context.Canceled", err)
	}
	if ce.Vector == nil {
		t.Fatal("no best-so-far fallback in the cancellation error")
	}
	applied := atomic.LoadInt32(&op.applies)
	if limit := op.cancelAt + maxBasis + 2; applied > limit {
		t.Fatalf("solve ran %d applies after cancellation at %d (limit %d) — not within one restart",
			applied, op.cancelAt, limit)
	}
}

// A caller-supplied operator is driven by every entry point of a caching
// session, even after an operator-free call has warmed the cache for the
// same graph and options: cached artifacts would install their own
// operator, or hand back the warm solve without driving any.
func TestCallerOperatorBypassesCache(t *testing.T) {
	ctx := context.Background()
	g := envred.Grid(16, 11)
	sess := envred.NewSession(envred.SessionOptions{Seed: 4})
	if _, err := sess.AutoWith(ctx, g, envred.AutoOptions{Seed: 4}); err != nil {
		t.Fatal(err)
	}
	newOp := func() *cancelOp {
		return &cancelOp{Interface: laplacian.New(g), cancel: func() {}}
	}

	op := newOp()
	fsess := envred.NewSession(envred.SessionOptions{Seed: 4, Spectral: envred.SpectralOptions{Operator: op}})
	if _, _, err := fsess.Fiedler(ctx, g); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fsess.Fiedler(ctx, g); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&op.applies) == 0 {
		t.Error("Fiedler did not drive the caller's operator")
	}

	op = newOp()
	res, err := sess.OrderBatch(ctx, []*envred.Graph{g}, envred.BatchOptions{
		Algorithm: envred.AlgSpectral,
		Spectral:  envred.SpectralOptions{Seed: 4, Operator: op},
	})
	if err != nil || res[0].Err != nil {
		t.Fatal(err, res[0].Err)
	}
	if atomic.LoadInt32(&op.applies) == 0 {
		t.Error("OrderBatch(SPECTRAL) did not drive the caller's operator")
	}

	op = newOp()
	auto := envred.AutoOptions{Seed: 4}
	auto.Spectral.Multilevel.FinestOp = op
	if _, err := sess.AutoWith(ctx, g, auto); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&op.applies) == 0 {
		t.Error("AutoWith did not drive the caller's finest-level operator")
	}
}

// Session.Intern resolves equal content to the first resident instance,
// forgets it when the graph is evicted or the session reset, and is a
// pass-through on a session without a cache.
func TestSessionIntern(t *testing.T) {
	ctx := context.Background()
	sess := envred.NewSession(envred.SessionOptions{Seed: 1, CacheGraphs: 2})
	a := envred.Grid(6, 5)
	if got, hit := sess.Intern(a); got != a || hit {
		t.Fatalf("first Intern = (%p, %v), want (%p, false)", got, hit, a)
	}
	if got, hit := sess.Intern(envred.Grid(6, 5)); got != a || !hit {
		t.Fatalf("equal content interned to (%p, %v), want the first instance %p and true", got, hit, a)
	}

	// Two more graphs, one interned and one only ordered, fill the
	// two-graph LRU: a is evicted with its content key.
	sess.Intern(envred.Grid(7, 5))
	if _, err := sess.Order(ctx, envred.Grid(8, 5), envred.AlgRCM); err != nil {
		t.Fatal(err)
	}
	a2 := envred.Grid(6, 5)
	if got, hit := sess.Intern(a2); got != a2 || hit {
		t.Fatalf("Intern after eviction = (%p, %v), want the new instance %p and false", got, hit, a2)
	}

	sess.Reset()
	a3 := envred.Grid(6, 5)
	if got, hit := sess.Intern(a3); got != a3 || hit {
		t.Fatalf("Intern after Reset = (%p, %v), want the new instance %p and false", got, hit, a3)
	}

	bare := envred.NewSession(envred.SessionOptions{CacheGraphs: -1})
	for i := 0; i < 2; i++ {
		b := envred.Grid(6, 5)
		if got, hit := bare.Intern(b); got != b || hit {
			t.Fatalf("cache-less Intern = (%p, %v), want (%p, false)", got, hit, b)
		}
	}
}

// The artifact-backed connected-graph path of Session.Do must stay
// field-identical to the historical core path — permutation AND spectral
// diagnostics — and must hand out copies, never the cache's own slices.
func TestSessionConnectedCachePathEquivalence(t *testing.T) {
	g := envred.Grid(17, 13) // connected: Session.Do attaches whole-graph artifacts
	ctx := context.Background()
	opt := envred.SpectralOptions{Seed: 11}

	ws := scratch.New()
	wantP, wantInfo, err := core.SpectralWS(ctx, ws, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	cached := envred.NewSession(envred.SessionOptions{})
	got, err := cached.Do(ctx, g, envred.AlgSpectral, envred.OrderRequest{Seed: opt.Seed, Spectral: opt})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Perm.Equal(wantP) {
		t.Fatal("cached connected Session SPECTRAL differs from core.SpectralWS")
	}
	if *got.Info != wantInfo {
		t.Fatalf("cached connected Session SPECTRAL info differs:\n got %+v\nwant %+v", *got.Info, wantInfo)
	}
	wantH, wantHInfo, err := core.SpectralSloanWS(ctx, ws, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	gotH, err := cached.Do(ctx, g, envred.AlgSpectralSloan, envred.OrderRequest{Seed: opt.Seed, Spectral: opt})
	if err != nil {
		t.Fatal(err)
	}
	if !gotH.Perm.Equal(wantH) || *gotH.Info != wantHInfo {
		t.Fatal("cached connected Session SPECTRAL+SLOAN differs from core path")
	}
	sess := envred.NewSession(envred.SessionOptions{Seed: 11})
	for alg, want := range map[string]envred.Perm{
		envred.AlgRCM:   envred.RCM(g),
		envred.AlgGK:    envred.GK(g),
		envred.AlgSloan: envred.Sloan(g),
		envred.AlgKing:  envred.King(g),
	} {
		res, err := sess.Order(ctx, g, alg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !res.Perm.Equal(want) {
			t.Fatalf("cached connected Session.Order(%s) differs from the top-level function", alg)
		}
	}

	// Mutating a returned Perm must not corrupt the cache.
	first, err := sess.Order(ctx, g, envred.AlgSpectral)
	if err != nil {
		t.Fatal(err)
	}
	first.Perm[0], first.Perm[1] = first.Perm[1], first.Perm[0]
	again, err := sess.Order(ctx, g, envred.AlgSpectral)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Perm.Equal(wantP) {
		t.Fatal("mutating a returned Perm corrupted the session cache")
	}

	// Mutating a returned Fiedler vector must not corrupt the cache either.
	x1, st1, err := sess.Fiedler(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	x1[0] = 1e9
	x2, st2, err := sess.Fiedler(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if x2[0] == 1e9 || st1.Lambda != st2.Lambda {
		t.Fatal("mutating a returned Fiedler vector corrupted the session cache")
	}
}

// Repeated and mixed Session.Order calls on a connected graph share one
// eigensolve through the session's whole-graph artifacts.
func TestSessionOrderSharesEigensolveOnConnectedGraph(t *testing.T) {
	g := envred.Grid(14, 12)
	sess := envred.NewSession(envred.SessionOptions{Seed: 6})
	ctx := context.Background()
	var solves int64
	restore := core.SetEigensolveTestHook(func(int) { atomic.AddInt64(&solves, 1) })
	defer restore()
	for _, alg := range []string{envred.AlgSpectral, envred.AlgSpectralSloan, envred.AlgSpectral, envred.AlgRCM} {
		if _, err := sess.Order(ctx, g, alg); err != nil {
			t.Fatal(err)
		}
	}
	if n := atomic.LoadInt64(&solves); n != 1 {
		t.Fatalf("%d eigensolves across SPECTRAL, SPECTRAL+SLOAN, SPECTRAL, RCM — the session cache should share one", n)
	}
}

// On a connected graph the whole-graph artifacts Session.Order memoizes
// and the spanning-component artifacts Auto resolves are the same object,
// so mixing the two entry points still costs exactly one eigensolve.
func TestSessionOrderThenAutoSharesEigensolve(t *testing.T) {
	g := envred.Grid(14, 12)
	sess := envred.NewSession(envred.SessionOptions{Seed: 6})
	ctx := context.Background()
	var solves int64
	restore := core.SetEigensolveTestHook(func(int) { atomic.AddInt64(&solves, 1) })
	defer restore()
	want, err := sess.Order(ctx, g, envred.AlgSpectral)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := sess.Auto(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt64(&solves); n != 1 {
		t.Fatalf("%d eigensolves across Order(SPECTRAL)+Auto — the cache should share one", n)
	}
	// And the shared artifacts change nothing about the result: the
	// portfolio's SPECTRAL candidate scored the same ordering.
	uncached, err := envred.NewSession(envred.SessionOptions{Seed: 6, CacheGraphs: -1}).Auto(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if !auto.Perm.Equal(uncached.Perm) {
		t.Fatal("artifact sharing with Session.Order changed the Auto result")
	}
	_ = want
}

// A spectral-free portfolio must report zero eigensolves even when the
// session cache holds a Fiedler solve from an earlier call on the same
// graph — the report describes this run's work, not the cache's history.
func TestReportClaimsOnlyConsumedEigensolves(t *testing.T) {
	g := envred.Grid(13, 9)
	sess := envred.NewSession(envred.SessionOptions{Seed: 2})
	ctx := context.Background()
	if _, _, err := sess.Fiedler(ctx, g); err != nil {
		t.Fatal(err)
	}
	res, err := sess.AutoWith(ctx, g, envred.AutoOptions{Seed: 2, Portfolio: []string{envred.AlgRCM, envred.AlgSloan}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Eigensolves != 0 || res.Solve != nil {
		t.Fatalf("RCM/SLOAN run claims %d cached eigensolves (Solve=%v)", res.Report.Eigensolves, res.Solve)
	}
	// A spectral portfolio on the same warm cache does consume the solve
	// and reports it, without re-running it.
	var solves int64
	restore := core.SetEigensolveTestHook(func(int) { atomic.AddInt64(&solves, 1) })
	spectral, err := sess.AutoWith(ctx, g, envred.AutoOptions{Seed: 2, Portfolio: []string{envred.AlgRCM, envred.AlgSpectral}})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if spectral.Report.Eigensolves != 1 || atomic.LoadInt64(&solves) != 0 {
		t.Fatalf("spectral run on warm cache: Eigensolves=%d, fresh solves=%d; want 1 consumed, 0 run",
			spectral.Report.Eigensolves, solves)
	}
}

// testShortRegistered registers the nil-perm orderer once per process —
// the registry is append-only, so go test -count=N must not re-register.
var testShortRegistered = func() bool {
	envred.MustRegister("TEST-SHORT", envred.OrdererFunc(
		func(ctx context.Context, g *envred.Graph, req *envred.OrderRequest) (envred.Result, error) {
			return envred.Result{}, nil // nil Perm, nil error
		}))
	return true
}()

// A registered Orderer returning a wrong-length ordering must surface as
// an error on the call (Session.Order) or the candidate (Auto) — never a
// panic in the envelope scorer.
func TestWrongLengthOrdererIsAnError(t *testing.T) {
	_ = testShortRegistered
	sess := envred.NewSession(envred.SessionOptions{Seed: 1})
	ctx := context.Background()
	g := envred.Path(10)
	if _, err := sess.Order(ctx, g, "TEST-SHORT"); err == nil {
		t.Fatal("Session.Order accepted a nil permutation from a custom orderer")
	}
	res, err := sess.AutoWith(ctx, g, envred.AutoOptions{
		Seed:      1,
		Portfolio: []string{envred.AlgRCM, "TEST-SHORT"},
	})
	if err != nil {
		t.Fatalf("wrong-length candidate must not fail the run: %v", err)
	}
	if err := res.Perm.Check(); err != nil || len(res.Perm) != g.N() {
		t.Fatalf("Auto result invalid: %v", err)
	}
	found := false
	for _, c := range res.Report.Components[0].Candidates {
		if c.Algorithm == "TEST-SHORT" {
			found = true
			if c.Err == "" {
				t.Fatal("wrong-length ordering not recorded as the candidate's error")
			}
		}
	}
	if !found {
		t.Fatal("TEST-SHORT candidate missing from the report")
	}
}

// A registered Orderer must observe the identical request — spectral seed
// included — whether invoked via Session.Order or raced inside Auto
// (the engine's reproducibility contract extends to user orderers).
func TestCustomOrdererSeesSameSeedFromBothEntryPoints(t *testing.T) {
	_ = seedProbeRegistered
	seeds := map[string][]int64{}
	seedProbeMu.Lock()
	seedProbeSink = func(mode string, seed int64) { seeds[mode] = append(seeds[mode], seed) }
	seedProbeMu.Unlock()
	defer func() {
		seedProbeMu.Lock()
		seedProbeSink = nil
		seedProbeMu.Unlock()
	}()
	sess := envred.NewSession(envred.SessionOptions{Seed: 42, CacheGraphs: -1})
	ctx := context.Background()
	g := envred.Path(20)
	if _, err := sess.Order(ctx, g, "TEST-SEED-PROBE"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AutoWith(ctx, g, envred.AutoOptions{Seed: 42, Portfolio: []string{"TEST-SEED-PROBE"}}); err != nil {
		t.Fatal(err)
	}
	seedProbeMu.Lock()
	defer seedProbeMu.Unlock()
	if len(seeds["order"]) != 1 || len(seeds["auto"]) != 1 {
		t.Fatalf("probe not invoked from both entry points: %v", seeds)
	}
	if seeds["order"][0] != 42 || seeds["auto"][0] != 42 {
		t.Fatalf("entry points disagree on the pre-defaulted spectral seed: %v", seeds)
	}
}

// The probe orderer is registered once per process (append-only registry,
// go test -count=N safe) and reports into whatever sink the running test
// installed under seedProbeMu.
var (
	seedProbeMu   sync.Mutex
	seedProbeSink func(mode string, seed int64)
)

var seedProbeRegistered = func() bool {
	envred.MustRegister("TEST-SEED-PROBE", envred.OrdererFunc(
		func(ctx context.Context, g *envred.Graph, req *envred.OrderRequest) (envred.Result, error) {
			seedProbeMu.Lock()
			if seedProbeSink != nil {
				seedProbeSink(probeMode(req), req.Spectral.Seed)
			}
			seedProbeMu.Unlock()
			return envred.Result{Perm: envred.Identity(g.N())}, nil
		}))
	return true
}()

// probeMode distinguishes the probe's entry points. Valid only because the
// probe Session disables caching — with a cache, Session.Order supplies
// whole-graph Artifacts on connected input too.
func probeMode(req *envred.OrderRequest) string {
	if req.Artifacts != nil {
		return "auto"
	}
	return "order"
}
