package envred_test

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	envred "repro"
	"repro/internal/core"
)

// answerBytes is the JSON of everything a Result answers, timing aside.
func answerBytes(t *testing.T, res envred.Result) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Algorithm  string
		Perm       envred.Perm
		Stats      envred.EnvelopeStats
		Solve      *envred.SolveStats
		Reversed   bool
		Components int
	}{res.Algorithm, res.Perm, res.Stats, res.Solve, res.Reversed, res.Components})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The answer memo keys by algorithm, seed and spectral options: over
// sixteen keys of one graph, each group of four (the memo's bound, so its
// second pass is served from the memo) answers every key exactly as a
// cache-less session does, the groups together setting keys that differ
// in one of the three beside each other.
func TestAnswerMemoKeys(t *testing.T) {
	g := mixedGraph()
	sess := envred.NewSession(envred.SessionOptions{})
	ref := envred.NewSession(envred.SessionOptions{CacheGraphs: -1})
	ctx := context.Background()
	type key struct {
		alg  string
		seed int64
		sopt envred.SpectralOptions
	}
	var keys []key
	for _, alg := range []string{envred.AlgRCM, envred.AlgSloan, envred.AlgSpectral, envred.AlgSpectralSloan} {
		for _, seed := range []int64{1, 2} {
			for _, sopt := range []envred.SpectralOptions{{}, {Method: envred.MethodLanczos}} {
				keys = append(keys, key{alg, seed, sopt})
			}
		}
	}
	want := map[key]string{}
	for _, k := range keys {
		res, err := ref.Do(ctx, g, k.alg, envred.OrderRequest{Seed: k.seed, Spectral: k.sopt})
		if err != nil {
			t.Fatal(err)
		}
		want[k] = answerBytes(t, res)
	}
	if want[keys[8]] == want[keys[9]] {
		t.Fatal("the two solvers answer alike: the test could not tell their keys apart")
	}
	groups := [][]key{keys[0:4], keys[4:8], keys[8:12], keys[12:16], {keys[0], keys[4], keys[8], keys[12]}}
	for _, group := range groups {
		for pass := 0; pass < 2; pass++ {
			for _, k := range group {
				res, err := sess.Do(ctx, g, k.alg, envred.OrderRequest{Seed: k.seed, Spectral: k.sopt})
				if err != nil {
					t.Fatal(err)
				}
				if got := answerBytes(t, res); got != want[k] {
					t.Fatalf("pass %d, %s seed %d %+v: answer differs from a cache-less session's", pass, k.alg, k.seed, k.sopt)
				}
			}
		}
	}
}

// impureCalls counts calls of the TEST-IMPURE orderer, which answers
// differently every time: a memo serving it would be caught repeating.
var impureCalls atomic.Int64

var impureRegistered = func() bool {
	envred.MustRegister("TEST-IMPURE", envred.OrdererFunc(
		func(_ context.Context, g *envred.Graph, _ *envred.OrderRequest) (envred.Result, error) {
			k := int(impureCalls.Add(1))
			p := make(envred.Perm, g.N())
			for i := range p {
				p[i] = int32((i + k) % g.N())
			}
			return envred.Result{Perm: p}, nil
		}))
	return true
}()

// A registered orderer, WEIGHTED and AUTO are never served from the
// answer memo: each call runs them again.
func TestUnmemoizedOrderersRunEveryCall(t *testing.T) {
	_ = impureRegistered
	g := mixedGraph()
	sess := envred.NewSession(envred.SessionOptions{Seed: 4})
	ctx := context.Background()
	var perms []envred.Perm
	for i := 0; i < 2; i++ {
		before := impureCalls.Load()
		res, err := sess.Order(ctx, g, "TEST-IMPURE")
		if err != nil {
			t.Fatal(err)
		}
		if impureCalls.Load() == before {
			t.Fatalf("call %d: the registered orderer did not run", i)
		}
		perms = append(perms, res.Perm)

		before = impureCalls.Load()
		if _, err := sess.AutoWith(ctx, g, envred.AutoOptions{Seed: 4, Portfolio: []string{envred.AlgRCM, "TEST-IMPURE"}}); err != nil {
			t.Fatal(err)
		}
		if impureCalls.Load() == before {
			t.Fatalf("call %d: AUTO did not race its portfolio", i)
		}

		hooked, _ := countSolves(func() {
			if _, err := sess.OrderWeighted(ctx, g, envred.AlgWeighted, mixedWeight); err != nil {
				t.Fatal(err)
			}
		})
		if hooked == 0 {
			t.Fatalf("call %d: WEIGHTED solved nothing", i)
		}
	}
	if perms[0].Equal(perms[1]) {
		t.Fatal("the impure orderer's second answer repeats its first")
	}
}

// Concurrent first orders of one graph race to remember the answer; every
// caller gets the bytes a cache-less session computes.
func TestConcurrentFirstOrdersIdentical(t *testing.T) {
	g := mixedGraph()
	ref := envred.NewSession(envred.SessionOptions{Seed: 6, CacheGraphs: -1})
	sess := envred.NewSession(envred.SessionOptions{Seed: 6})
	ctx := context.Background()
	algs := []string{envred.AlgRCM, envred.AlgSloan, envred.AlgSpectral, envred.AlgSpectralSloan}
	want := map[string]string{}
	for _, alg := range algs {
		res, err := ref.Order(ctx, g, alg)
		if err != nil {
			t.Fatal(err)
		}
		want[alg] = answerBytes(t, res)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([][]string, 8)
	errs := make([]error, 8)
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range algs {
				alg := algs[(w+i)%len(algs)]
				res, err := sess.Order(ctx, g, alg)
				if err != nil {
					errs[w] = err
					return
				}
				got[w] = append(got[w], alg, answerBytes(t, res))
			}
		}()
	}
	close(start)
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for i := 0; i < len(got[w]); i += 2 {
			if got[w][i+1] != want[got[w][i]] {
				t.Fatalf("worker %d, %s: concurrent first answer differs from a cache-less session's", w, got[w][i])
			}
		}
	}
}

// A spectral order that gives up waiting behind another caller's solve ran
// no solve and carries no solve record — on its own and as an AUTO
// candidate — and the answer memo keeps nothing of it: once the solve
// finishes, every answer carries that solve's record.
func TestWaitGiveUpCarriesNoSolveRecord(t *testing.T) {
	g := envred.Grid(12, 9)
	ctx := context.Background()
	ref := envred.NewSession(envred.SessionOptions{Seed: 1, CacheGraphs: -1})
	want := map[string]envred.Perm{}
	for _, alg := range []string{envred.AlgSpectral, envred.AlgSpectralSloan} {
		res, err := ref.Order(ctx, g, alg)
		if err != nil {
			t.Fatal(err)
		}
		want[alg] = res.Perm
	}
	sess := envred.NewSession(envred.SessionOptions{Seed: 1})
	var solves atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	restore := core.SetEigensolveTestHook(func(int) {
		solves.Add(1)
		once.Do(func() {
			close(entered)
			<-release // hold the artifact's solve semaphore
		})
	})
	defer restore()
	type outcome struct {
		res envred.Result
		err error
	}
	first := make(chan outcome, 1)
	go func() {
		res, err := sess.Order(ctx, g, envred.AlgSpectral)
		first <- outcome{res, err}
	}()
	<-entered

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, alg := range []string{envred.AlgSpectral, envred.AlgSpectralSloan} {
		res, err := sess.Do(cancelled, g, alg, envred.OrderRequest{})
		var ce *envred.ErrCancelled
		if !errors.As(err, &ce) {
			t.Fatalf("%s: want ErrCancelled from the queue, got %v", alg, err)
		}
		if res.Solve != nil {
			t.Fatalf("%s: a call that ran no solve carries a solve record %+v", alg, res.Solve)
		}
	}
	auto, err := sess.AutoWith(ctx, g, envred.AutoOptions{
		Seed:        1,
		Portfolio:   []string{envred.AlgRCM, envred.AlgSpectralSloan},
		Budget:      time.Second, // starts the candidate well before it expires
		Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := auto.Report.Components[0].Candidates[1]
	if c.Err == "" || c.Solve != nil {
		t.Fatalf("AUTO candidate cancelled in the queue: err %q, solve %+v; want an error and no record", c.Err, c.Solve)
	}
	if auto.Solve != nil || auto.Report.Eigensolves != 0 {
		t.Fatalf("AUTO reports %d solves and record %+v for a run that solved nothing", auto.Report.Eigensolves, auto.Solve)
	}

	close(release)
	out := <-first
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Solve == nil || out.res.Solve.Scheme == "" {
		t.Fatalf("the solve that ran carries record %+v", out.res.Solve)
	}
	for _, alg := range []string{envred.AlgSpectral, envred.AlgSpectralSloan} {
		res, err := sess.Order(ctx, g, alg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Solve == nil || *res.Solve != *out.res.Solve {
			t.Fatalf("%s after the solve: record %+v, want the solve's %+v", alg, res.Solve, out.res.Solve)
		}
		if !res.Perm.Equal(want[alg]) {
			t.Fatalf("%s after the solve: ordering differs from a cache-less session's", alg)
		}
	}
	if n := solves.Load(); n != 1 {
		t.Fatalf("%d eigensolves, want the one that was held", n)
	}
}
