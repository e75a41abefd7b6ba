package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	envred "repro"
	"repro/client"
	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/service"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want float64
	}{
		{0.99, 5000, 0.99},
		{0.99, 1001, 0.99},
		{0.99, 500, 489.0 / 499},
		{0.90, 101, 0.90},
		{0.90, 50, 39.0 / 49},
		{0.50, 21, 0.50},
		{0.50, 10, 0},
	} {
		if got := supported(c.q, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("supported(%v, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
	// Whatever the sample count, at least minBeyond samples lie above the
	// position the reported percentile is read at.
	for n := minBeyond + 1; n < 3000; n += 7 {
		for _, q := range []float64{0.5, 0.9, 0.99} {
			p := supported(q, n)
			if beyond := n - 1 - int(math.Floor(p*float64(n-1)+1e-9)); beyond < minBeyond {
				t.Fatalf("n=%d q=%v: %d samples beyond q%v", n, q, beyond, p)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	s := make([]float64, 1001)
	for i := range s {
		s[i] = float64(i + 1)
	}
	// Harrell–Davis is unbiased on a symmetric sample.
	if got := quantile(s, 0.5); math.Abs(got-501) > 1e-6 {
		t.Errorf("median of 1..1001 = %v, want 501", got)
	}
	if got := quantile(s, 0.9); math.Abs(got-901) > 2 {
		t.Errorf("q0.9 of 1..1001 = %v, want about 901", got)
	}
	if got := quantile([]float64{3}, 0.9); got != 3 {
		t.Errorf("q0.9 of one sample = %v", got)
	}
}

func TestFailuresCountAsInfinite(t *testing.T) {
	// 100 operations, 15 of which failed: the median is a real latency,
	// the 90th percentile reaches into the failures.
	var ms []float64
	for i := 0; i < 85; i++ {
		ms = append(ms, float64(i+1))
	}
	for i := 0; i < 15; i++ {
		ms = append(ms, inf)
	}
	l := summarize(ms)
	if math.IsInf(l.p50, 0) || l.p50 < 40 || l.p50 > 60 {
		t.Errorf("p50 = %v with 15%% failures", l.p50)
	}
	if !math.IsInf(l.p90, 1) {
		t.Errorf("p90 = %v with 15%% failures, want +Inf", l.p90)
	}
	c := call{err: os.ErrClosed}
	if !math.IsInf(c.latency(), 1) {
		t.Errorf("a failed call's latency is %v", c.latency())
	}
}

func TestStreamsFollowTheSeed(t *testing.T) {
	sched := func(seed int64) []time.Duration { return poissonSchedule(seed, "arrivals", 300, 2*time.Second) }
	if a, b := sched(1), sched(1); !reflect.DeepEqual(a, b) {
		t.Error("Poisson schedule differs for one seed")
	}
	if a, b := sched(1), sched(2); reflect.DeepEqual(a, b) {
		t.Error("Poisson schedule is the same for two seeds")
	}
	if n := len(sched(1)); n < 450 || n > 750 {
		t.Errorf("%d arrivals in 2 s at 300/s", n)
	}
	for i, d := range sched(3)[1:] {
		if d <= sched(3)[i] {
			t.Fatalf("arrival %d at %v is not after %v", i+1, d, sched(3)[i])
		}
	}

	zipf := func(seed int64) []int { return zipfSequence(seed, "zipf", 1.1, 32, 500) }
	if a, b := zipf(1), zipf(1); !reflect.DeepEqual(a, b) {
		t.Error("Zipf sequence differs for one seed")
	}
	if a, b := zipf(1), zipf(2); reflect.DeepEqual(a, b) {
		t.Error("Zipf sequence is the same for two seeds")
	}
	counts := make([]int, 32)
	for _, k := range zipf(1) {
		counts[k]++
	}
	if counts[0] <= counts[31] {
		t.Errorf("rank 0 drawn %d times, rank 31 %d times", counts[0], counts[31])
	}

	// The graph streams: the same graphs for one seed, other graphs of the
	// same sizes for another, and never a repeat, not even of one shape in
	// three batch documents.
	for _, stream := range []func(seed int64, k int) *graph.Graph{
		func(seed int64, k int) *graph.Graph { return meshStream(seed, "fresh", k, 800, 1200) },
		func(seed int64, k int) *graph.Graph { return batchGraph(seed, k%3, k/3*5, 300, 3000) },
	} {
		seen := map[graph.Fingerprint]bool{}
		for k := 0; k < 12; k++ {
			a, b, c := stream(1, k), stream(1, k), stream(2, k)
			fa := graph.FingerprintOf(a)
			if fa != graph.FingerprintOf(b) {
				t.Errorf("graph %d differs for one seed", k)
			}
			if fa == graph.FingerprintOf(c) {
				t.Errorf("graph %d is the same for two seeds", k)
			}
			if a.N() != c.N() {
				t.Errorf("graph %d has %d vertices for seed 1, %d for seed 2", k, a.N(), c.N())
			}
			if seen[fa] {
				t.Errorf("graph %d repeats an earlier graph of the stream", k)
			}
			seen[fa] = true
			if !graph.IsConnected(a) {
				t.Errorf("graph %d is disconnected", k)
			}
		}
	}
}

// TestQualityCountsEachPairOnce pins esize_vs_rcm's weighting: a pair
// served twice counts once, and RCM's own answer scores 1.
func TestQualityCountsEachPairOnce(t *testing.T) {
	a := &input{name: "a", rcm: 100}
	b := &input{name: "b", rcm: 300}
	q := quality{}
	q.add(a, envred.AlgSpectral, 50)
	q.add(a, envred.AlgSpectral, 50)
	q.add(a, envred.AlgSpectral, 50)
	q.add(b, envred.AlgSpectral, 150)
	if got := q.vsRCM(); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("vsRCM = %v, want 0.5", got)
	}
	q = quality{}
	q.add(b, envred.AlgRCM, 300)
	if got := q.vsRCM(); got != 1 {
		t.Errorf("RCM against itself = %v, want 1", got)
	}
}

// TestDecompositionMatchesSessionOrder pins the traced cold_paper path: the
// layer-by-layer decomposition returns Session.Order's permutation and
// envelope size, on the paper suite and on a disconnected graph.
func TestDecompositionMatchesSessionOrder(t *testing.T) {
	ctx := context.Background()
	var inputs []*input
	for _, sp := range envred.Problems() {
		in, err := newInput(sp.Name, sp.Generate(0.02, 3).G)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, in)
	}
	// Two grids and an isolated vertex.
	b := graph.NewBuilder(2*30 + 1)
	for k := 0; k < 2; k++ {
		g := graph.Grid(6, 5)
		for _, e := range g.Edges() {
			b.AddEdge(k*30+e[0], k*30+e[1])
		}
	}
	in, err := newInput("disconnected", b.Build())
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, in)

	tr := newTracer()
	var tot solveTotals
	for i, in := range inputs {
		want, _, err := paperOrder(ctx, in, false, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, esize, err := decomposed(ctx, tr, i, in, 3, &tot)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if !got.Equal(want.Perm) {
			t.Errorf("%s: decomposition differs from Session.Order", in.name)
		}
		if esize != want.Stats.Esize {
			t.Errorf("%s: Esize %d, Session.Order says %d", in.name, esize, want.Stats.Esize)
		}
	}
	if tot.applies == 0 || tot.solves == 0 {
		t.Errorf("the timed operator saw %d applies over %d solves", tot.applies, tot.solves)
	}
	if c := tr.childMs(spectralSpan) / tr.ms(spectralSpan); c < 0.5 || c > 1 {
		t.Errorf("layer spans cover %.2f of the operations", c)
	}
}

// TestHTTPMatchesLibrary pins the byte identity the service workloads
// check: the daemon, through the client, answers as Session.Order does.
func TestHTTPMatchesLibrary(t *testing.T) {
	ctx := context.Background()
	const seed = 7
	d, err := startDaemon(service.Config{Seed: seed}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	lib := envred.NewSession(envred.SessionOptions{Seed: seed})
	var graphs []*envred.Graph
	for k := 0; k < 3; k++ {
		in, err := newInput("g", graphStream(seed, "http", k, k, 100+150*k))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, in.g)
		for _, alg := range warmAlgorithms {
			ot := &opTrace{id: k}
			res, err := d.cl.OrderMatrixMarket(withTrace(ctx, ot), in.mm, client.OrderRequest{Algorithm: alg, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			want, err := lib.Order(ctx, in.g, alg)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Perm.Equal(res.Perm) {
				t.Errorf("graph %d %s: HTTP ordering differs from Session.Order", k, alg)
			}
			if err := checkResponse(in.g, res.Perm, res.Envelope.Esize); err != nil {
				t.Errorf("graph %d %s: %v", k, alg, err)
			}
			if hs, he := ot.handler(); !he.After(hs) || ot.rtEnd.Before(he) || ot.respBytes == 0 {
				t.Errorf("graph %d %s: trace not filled in: %+v", k, alg, ot)
			}
		}
	}
	batch, err := d.cl.OrderBatch(ctx, graphs, client.BatchRequest{Algorithm: envred.AlgSpectral, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for k, item := range batch.Results {
		want, err := lib.Order(ctx, graphs[k], envred.AlgSpectral)
		if err != nil {
			t.Fatal(err)
		}
		if item == nil || !want.Perm.Equal(item.Perm) {
			t.Errorf("batch item %d differs from Session.Order", k)
		}
	}
}

// swapped returns p with its first two entries exchanged: still a
// permutation, but not the one that was computed.
func swapped(p perm.Perm) perm.Perm {
	q := p.Clone()
	q[0], q[1] = q[1], q[0]
	return q
}

func TestChecksCatchASwappedOrdering(t *testing.T) {
	ctx := context.Background()
	in, err := newInput("grid", graph.Grid(9, 7))
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := paperOrder(ctx, in, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := paperOp{perm: ref.Perm, esize: ref.Stats.Esize}
	bad := paperOp{perm: swapped(ref.Perm), esize: ref.Stats.Esize}

	r := newRun(config{})
	verifyPaper(r, []*input{in}, []perm.Perm{ref.Perm}, []paperOp{good, good})
	if r.failed() != 0 {
		t.Fatalf("correct orderings failed: %v", r.bad)
	}
	r = newRun(config{})
	verifyPaper(r, []*input{in}, []perm.Perm{ref.Perm}, []paperOp{good, bad})
	if _, ok := r.bad[1]; !ok || r.failed() != 1 {
		t.Errorf("swapped ordering not caught: %v", r.bad)
	}

	// The HTTP workloads keep answers, not orderings.
	lib := newReference(in.g, ref.Perm)
	if err := newAnswer(ref.Perm.Clone(), ref.Stats.Esize, false).check(lib); err != nil {
		t.Errorf("correct answer failed: %v", err)
	}
	if err := newAnswer(swapped(ref.Perm), ref.Stats.Esize, false).check(lib); err == nil {
		t.Error("swapped answer not caught")
	}
	if err := newAnswer(ref.Perm.Clone(), ref.Stats.Esize+1, false).check(lib); err == nil {
		t.Error("wrong reported Esize not caught")
	}

	doc := &batchDoc{alg: envred.AlgSpectral}
	batch := func(bad int) []batchCall {
		items := make([]*client.OrderResult, batchItems)
		for i := range items {
			p := ref.Perm.Clone()
			if i == bad {
				p = swapped(p)
			}
			items[i] = &client.OrderResult{Perm: p, Envelope: client.Envelope{Esize: ref.Stats.Esize}}
		}
		calls := []batchCall{{res: &client.BatchResult{Results: items}}}
		calls[0].keep()
		return calls
	}
	for range batchItems {
		doc.inputs = append(doc.inputs, in)
	}
	r = newRun(config{seed: 1})
	verifyBatch(r, []*batchDoc{doc}, batch(-1))
	if r.failed() != 0 {
		t.Fatalf("correct batch failed: %v", r.bad)
	}
	r = newRun(config{seed: 1})
	verifyBatch(r, []*batchDoc{doc}, batch(5))
	if _, ok := r.bad[5]; !ok || r.failed() != 1 {
		t.Errorf("swapped batch item not caught: %v", r.bad)
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, with
// every check on.
func TestSmoke(t *testing.T) {
	t.Chdir(t.TempDir()) // the churn workload's store
	for _, trace := range []bool{false, true} {
		for _, name := range workloadNames() {
			var out bytes.Buffer
			ok, err := runOne(config{workload: name, seed: 1, seconds: 0.3, trace: trace, smoke: true}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", name, trace, err)
			}
			if !ok || !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: ok=%v result %+v\n%s", name, trace, ok, res, out.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v", name, trace, d.name, m)
				}
			}
		}
	}
	if entries, err := os.ReadDir(buildDir); err == nil && len(entries) > 0 {
		t.Errorf("%s left behind %d entries", buildDir, len(entries))
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the program: the same
// workloads, and the same end-to-end and per-layer metrics with the same
// units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	same := func(kind string, file []struct{ Name, Unit string }, prog []metricDef) {
		var f, p []string
		for _, m := range file {
			f = append(f, m.Name+" "+m.Unit)
		}
		for _, m := range prog {
			p = append(p, m.name+" "+m.unit)
		}
		sort.Strings(f)
		sort.Strings(p)
		if !reflect.DeepEqual(f, p) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\nprogram        %v", kind, f, p)
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd)
	same("per-layer", doc.PerLayer, perLayer)
}
