package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	envred "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/service"
)

// daemon is an in-process envorderd on a loopback port, and a client for
// it with at most nproc connections.
type daemon struct {
	srv      *service.Server
	hs       *http.Server
	serveErr chan error
	base     *http.Transport
	cl       *client.Client
}

// startDaemon starts the daemon. When traced, the handler and the client
// transport time the requests whose context carries an opTrace.
func startDaemon(cfg service.Config, traced bool) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: service.New(cfg), serveErr: make(chan error, 1)}
	nproc := runtime.NumCPU()
	d.base = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	var h http.Handler = d.srv.Handler()
	var rt http.RoundTripper = d.base
	if traced {
		table := &traceTable{ops: map[int]*opTrace{}}
		h = &handlerTimer{next: h, table: table}
		rt = &transport{base: d.base, table: table}
	}
	d.hs = &http.Server{Handler: h}
	go func() { d.serveErr <- d.hs.Serve(ln) }()
	d.cl = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: rt}),
		// A failed request counts as failed: retries would hide it.
		client.WithRetries(0, 0))
	return d, nil
}

func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "envbench: http shutdown:", err)
	}
	<-d.serveErr
	d.base.CloseIdleConnections()
	if err := d.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "envbench: daemon shutdown:", err)
	}
}

// scrape reads the daemon's /metrics into a map from series to value.
func (d *daemon) scrape() (map[string]float64, error) {
	text, err := d.cl.Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// call is one client request (an order or a batch document) as the load
// generator saw it.
type call struct {
	due  time.Time // when the schedule said to send; sent for closed loops
	sent time.Time
	done time.Time
	tr   *opTrace // nil when untraced
	err  error
}

func (c *call) latency() float64 {
	if c.err != nil {
		return inf
	}
	return ms(c.done.Sub(c.due))
}

// openLoop sends operation i at start+sched[i] from a goroutine of its own,
// whether or not earlier operations have completed, and returns when all
// have.
func openLoop(start time.Time, sched []time.Duration, do func(i int, due time.Time)) {
	var wg sync.WaitGroup
	for i, off := range sched {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(i, due)
		}()
	}
	wg.Wait()
}

// closedLoop runs do(0..n-1) from callers goroutines, each sending its
// next operation when the previous one returns.
func closedLoop(n, callers int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(i)
			}
		}()
	}
	wg.Wait()
}

// traceFor returns operation i's trace: on traced runs every other
// operation is traced, and the untraced ones between measure the tracing
// overhead.
func traceFor(r *run, i int) *opTrace {
	if r.tr == nil || i%2 != 0 {
		return nil
	}
	return &opTrace{id: i}
}

// request is one POST /v1/order of the open-loop workloads.
type request struct {
	call
	in    *input
	alg   string
	fresh bool                // a graph no earlier request carried
	res   *client.OrderResult // without its Perm, which ans stands for
	ans   answer
}

// orderLoad is an open-loop /v1/order workload ready to run.
type orderLoad struct {
	d     *daemon
	sched []time.Duration
	reqs  []request
}

func (l *orderLoad) send(ctx context.Context, o *request, seed int64) {
	if o.tr != nil {
		ctx = withTrace(ctx, o.tr)
	}
	o.res, o.err = l.d.cl.OrderMatrixMarket(ctx, o.in.mm, client.OrderRequest{Algorithm: o.alg, Seed: seed})
	o.done = time.Now()
	if o.err == nil {
		o.ans = newAnswer(o.res.Perm, o.res.Envelope.Esize, o.fresh)
		o.res.Perm = nil
	}
}

// warmUp sends the given orders closed-loop from nproc callers and fails
// on the first error.
func (l *orderLoad) warmUp(warm []request, seed int64) error {
	closedLoop(len(warm), runtime.NumCPU(), func(i int) { l.send(context.Background(), &warm[i], seed) })
	for i := range warm {
		if warm[i].err != nil {
			return fmt.Errorf("warm-up order %d (%s): %w", i, warm[i].in.name, warm[i].err)
		}
	}
	return nil
}

// measure runs the timed window load and returns it with the daemon's
// metric deltas and the process's eigensolve count across it.
func (d *daemon) measure(load func(start time.Time)) (window, map[string]float64, int64, error) {
	before, err := d.scrape()
	if err != nil {
		return window{}, nil, 0, err
	}
	solves := core.EigensolveCount()
	w := startWindow()
	load(w.start)
	w.stop()
	solves = core.EigensolveCount() - solves
	after, err := d.scrape()
	if err != nil {
		return window{}, nil, 0, err
	}
	for k, v := range after {
		after[k] = v - before[k]
	}
	return w, after, solves, nil
}

// run sends every order on schedule.
func (l *orderLoad) run(seed int64) (window, map[string]float64, int64, error) {
	return l.d.measure(func(start time.Time) {
		openLoop(start, l.sched, func(i int, due time.Time) {
			o := &l.reqs[i]
			o.due, o.sent = due, time.Now()
			l.send(context.Background(), o, seed)
		})
	})
}

// report sets the end-to-end metrics and checks every response: a valid
// ordering of the graph sent with the envelope size it claims and, unless
// the graph was fresh, the library's Session.Order answer for the same
// graph, algorithm and seed (compared by digest; see answer).
func (l *orderLoad) report(r *run, w window, delta map[string]float64, solves int64) {
	r.attempted = len(l.reqs)
	lat := make([]float64, len(l.reqs))
	q := quality{}
	completed := 0
	for i := range l.reqs {
		o := &l.reqs[i]
		lat[i] = o.latency()
		if o.err == nil {
			completed++
			q.add(o.in, o.alg, o.res.Envelope.Esize)
			if o.res.Solve != nil {
				r.host.LaplacianWorkers = max(r.host.LaplacianWorkers, o.res.Solve.Workers)
			}
		}
	}
	r.endToEnd(w, completed, summarize(lat), q)

	refs := map[qualityKey]*reference{}
	lib := envred.NewSession(envred.SessionOptions{Seed: r.cfg.seed})
	for i := range l.reqs {
		o := &l.reqs[i]
		if o.err != nil {
			r.fail(i, "%s %s: %v", o.in.name, o.alg, o.err)
			continue
		}
		if o.fresh {
			if err := checkResponse(o.in.g, o.ans.perm, o.ans.esize); err != nil {
				r.fail(i, "%s %s: %v", o.in.name, o.alg, err)
			}
			continue
		}
		k := qualityKey{o.in, o.alg}
		ref, ok := refs[k]
		if !ok {
			res, err := lib.Order(context.Background(), o.in.g, o.alg)
			if err != nil {
				r.fail(i, "%s %s: library: %v", o.in.name, o.alg, err)
				continue
			}
			ref = newReference(o.in.g, res.Perm)
			refs[k] = ref
		}
		if err := o.ans.check(ref); err != nil {
			r.fail(i, "%s %s: %v", o.in.name, o.alg, err)
		}
	}
	if r.tr == nil {
		return
	}
	calls := make([]callStat, 0, len(l.reqs))
	decoded := map[*input]int{}
	matvecs := 0
	for i := range l.reqs {
		o := &l.reqs[i]
		cs := callStat{c: &o.call, items: 1}
		if o.err == nil {
			cs.sessionMs = o.res.ElapsedMS
			if !o.res.Cached && o.res.Solve != nil {
				matvecs += o.res.Solve.MatVecs
			}
		}
		calls = append(calls, cs)
		decoded[o.in]++
	}
	httpLayers(r, calls, delta, solves)
	replayDecode(r, decoded)
	r.set("solver.matvecs", ratio(float64(matvecs), float64(len(l.reqs))))
}

// callStat is one call's contribution to the HTTP layer metrics.
type callStat struct {
	c         *call
	items     int     // orderings the call carried
	sessionMs float64 // the daemon's Session time, from the response
}

// callSpan is the parent span of a traced HTTP call.
const callSpan = "client.call"

// httpLayers sets the per-layer metrics every HTTP workload shares, per
// ordering, from the traced calls, and records their spans; untraced calls
// measure the overhead.
func httpLayers(r *run, calls []callStat, delta map[string]float64, solves int64) {
	var items, orders int
	var wallT, wallU, nT, nU float64
	var roundtrip, handler, session, transport, wire float64
	var waits, late []float64
	for _, s := range calls {
		c := s.c
		late = append(late, ms(c.sent.Sub(c.due)))
		orders += s.items
		wall := ms(c.done.Sub(c.sent))
		if c.err != nil {
			continue
		}
		if c.tr == nil {
			wallU += wall
			nU++
			continue
		}
		wallT += wall
		nT++
		hs, he := c.tr.handler()
		r.tr.add(c.tr.id, callSpan, "", c.sent, c.done)
		r.tr.add(c.tr.id, "http.roundtrip", callSpan, c.tr.rtStart, c.tr.rtEnd)
		r.tr.add(c.tr.id, "service.handler", "http.roundtrip", hs, he)
		h := ms(he.Sub(hs))
		items += s.items
		roundtrip += wall
		handler += h
		session += s.sessionMs
		transport += ms(c.tr.rtEnd.Sub(c.tr.rtStart))
		wire += float64(c.tr.reqBytes + c.tr.respBytes)
		waits = append(waits, h-s.sessionMs)
	}
	per := func(v float64) float64 { return ratio(v, float64(items)) }
	r.set("client.roundtrip_ms", per(roundtrip))
	r.set("http.transport_ms", per(transport-handler))
	r.set("service.handler_ms", per(handler))
	r.set("service.session_ms", per(session))
	r.set("service.overhead_ms", per(handler-session))
	r.set("service.wire_bytes", per(wire))
	r.set("service.wait_ms", summarize(waits).p99)
	r.set("trace.coverage", ratio(r.tr.childMs(callSpan), r.tr.ms(callSpan)))
	r.set("trace.overhead_frac", ratio(ratio(wallT, nT), ratio(wallU, nU))-1)
	r.set("loadgen.late_p99_ms", summarize(late).p99)
	hits, misses := delta["envorderd_cache_hits_total"], delta["envorderd_cache_misses_total"]
	r.set("service.cache_hit_rate", ratio(hits, hits+misses))
	r.set("service.eigensolve_ms", ratio(delta["envorderd_eigensolve_seconds_sum"]*1e3, float64(orders)))
	r.set("solver.solves_per_order", ratio(float64(solves), float64(orders)))
}

// replayDecode times, after the window, the decode and fingerprint the
// daemon ran on each request body, weighted by how often each was sent.
func replayDecode(r *run, sent map[*input]int) {
	var decode, fingerprint float64
	orders := 0
	for in, count := range sent {
		var dt, ft []float64
		for rep := 0; rep < 3; rep++ {
			t := time.Now()
			g, err := mm.ReadGraph(bytes.NewReader(in.mm))
			dt = append(dt, ms(time.Since(t)))
			if err != nil {
				r.breakCheck("replaying %s: %v", in.name, err)
				return
			}
			t = time.Now()
			graph.FingerprintOf(g)
			ft = append(ft, ms(time.Since(t)))
		}
		decode += median(dt) * float64(count)
		fingerprint += median(ft) * float64(count)
		orders += count
	}
	r.set("mm.decode_ms", ratio(decode, float64(orders)))
	r.set("graph.fingerprint_ms", ratio(fingerprint, float64(orders)))
}

// service_warm: Poisson arrivals at 300/s (about a third of two cores) over a
// working set of six graphs, fewer than the daemon's cache holds, rotating
// through SPECTRAL, SPECTRAL+SLOAN, RCM and SLOAN. After the warm-up the
// eigensolve layer does no work at all: decode, fingerprint and intern,
// envelope scoring and JSON encoding are what remain, so a solver-only
// change must not move this workload.

const (
	warmRate   = 300.0
	warmWarmUp = 480
)

// warmProblems are the six smallest problems of the paper's tables, at
// warmScale (n from 540 to 1680): small enough that 300 requests a
// second keep two cores about a third busy. Like cold_paper's, they are
// the suite's fixed instances (paperGenSeed): drawn from the benchmark
// seed, they moved esize_vs_rcm by 2.7% between seeds, mostly through
// POW9's power network.
var warmProblems = []string{"BCSSTK13", "CAN1072", "POW9", "BLKHOLE", "DWT2680", "SSTMODEL"}

const warmScale = 0.5

var warmAlgorithms = []string{envred.AlgSpectral, envred.AlgSpectralSloan, envred.AlgRCM, envred.AlgSloan}

func serviceWarm(r *run) error {
	seed := r.cfg.seed
	var l *orderLoad
	teardown, err := r.setUp(func() (func(), error) {
		scale := warmScale
		if r.cfg.smoke {
			scale = 0.1
		}
		var inputs []*input
		for _, name := range warmProblems {
			sp, ok := envred.ProblemByName(name)
			if !ok {
				return nil, fmt.Errorf("no problem %s", name)
			}
			in, err := newInput(name, sp.Generate(scale, paperGenSeed).G)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, in)
		}
		// Requests cycle through every (graph, algorithm) pair in a seeded
		// order, so each window serves the same mix.
		pairs := len(inputs) * len(warmAlgorithms)
		mix := rng(seed, "warm.mix").Perm(pairs)
		pick := func(i int) request {
			p := mix[i%pairs]
			return request{in: inputs[p%len(inputs)], alg: warmAlgorithms[p/len(inputs)]}
		}
		sched := poissonSchedule(seed, "warm.arrivals", warmRate, seconds(r.cfg.seconds))
		reqs := make([]request, len(sched))
		for i := range reqs {
			reqs[i] = pick(i)
			reqs[i].tr = traceFor(r, i)
		}
		d, err := startDaemon(service.Config{Seed: seed}, r.tr != nil)
		if err != nil {
			return nil, err
		}
		l = &orderLoad{d: d, sched: sched, reqs: reqs}
		warm := make([]request, warmWarmUp)
		for i := range warm {
			warm[i] = pick(i)
		}
		if err := l.warmUp(warm, seed); err != nil {
			d.stop()
			return nil, err
		}
		return d.stop, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	w, delta, solves, err := l.run(seed)
	if err != nil {
		return err
	}
	l.report(r, w, delta, solves)
	if solves != 0 {
		r.breakCheck("%d eigensolves in the timed window, want 0", solves)
	}
	if m := delta["envorderd_cache_misses_total"]; m != 0 {
		r.breakCheck("%v graph-cache misses in the timed window, want 0", m)
	}
	return nil
}

// service_churn: Poisson arrivals at 100/s, all SPECTRAL, on a daemon
// whose persistent store (fs://) was filled with 32 resident graphs, four
// times what its memory cache holds. Requests draw the resident graphs
// with Zipf(1.1) popularity, and one in five carries a graph never sent
// before. Store reads sit beside store writes and cold solves, and cold
// solves hold solve-pool slots that cache hits queue behind, so a cache or
// store change that speeds reads but slows writes shows here.
//
// One in five, not one in ten: with a tenth of the requests cold, the 90th
// percentile sits on the edge between served and solved requests and jumps
// between the two from run to run. With a fifth, the median reads the
// served requests and the 90th percentile the cold solves.

const (
	churnRate       = 100.0
	churnResident   = 32
	churnFreshEvery = 5
	churnZipf       = 1.1
	churnWarmUp     = 128
	// Graph sizes of the resident and fresh streams: all below the
	// 2000-vertex multilevel switch, so every cold solve costs about the
	// same, and taken from the graph's index alone (see meshStream), so
	// the latency tail does not depend on the seed.
	churnMinN, churnMaxN = 800, 1200
)

func serviceChurn(r *run) error {
	seed := r.cfg.seed
	var l *orderLoad
	var ts *timedStore
	teardown, err := r.setUp(func() (func(), error) {
		minN, maxN := churnMinN, churnMaxN
		if r.cfg.smoke {
			minN, maxN = 30, 300
		}
		resident := make([]*input, churnResident)
		for k := range resident {
			in, err := newInput(fmt.Sprintf("resident-%d", k), meshStream(seed, "churn.resident", k, minN, maxN))
			if err != nil {
				return nil, err
			}
			resident[k] = in
		}
		sched := poissonSchedule(seed, "churn.arrivals", churnRate, seconds(r.cfg.seconds))
		popular := zipfSequence(seed, "churn.zipf", churnZipf, churnResident, len(sched))
		// Exactly one request in each block of churnFreshEvery carries a
		// fresh graph, at a seeded place in the block.
		slot := rng(seed, "churn.fresh-slot")
		reqs := make([]request, len(sched))
		fresh, freshAt := 0, -1
		for i := range reqs {
			o := request{in: resident[popular[i]], alg: envred.AlgSpectral}
			if i%churnFreshEvery == 0 {
				freshAt = i + slot.Intn(churnFreshEvery)
			}
			if i == freshAt {
				in, err := newInput(fmt.Sprintf("fresh-%d", fresh), meshStream(seed, "churn.fresh", fresh, minN, maxN))
				if err != nil {
					return nil, err
				}
				o = request{in: in, alg: envred.AlgSpectral, fresh: true}
				fresh++
			}
			o.tr = traceFor(r, i)
			reqs[i] = o
		}

		// The store lives inside the working directory and goes with the
		// teardown.
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(buildDir, "churn-store-")
		if err != nil {
			return nil, err
		}
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		st, err := envred.OpenStore("fs://" + abs)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		ts = &timedStore{Store: st}
		closeStore := func() {
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "envbench: closing store:", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				fmt.Fprintln(os.Stderr, "envbench:", err)
			}
		}
		// Fill the store: every resident graph's eigensolve, written by a
		// library session as a previous daemon would have.
		fill := envred.NewSession(envred.SessionOptions{Seed: seed, Store: ts})
		for _, in := range resident {
			if _, err := fill.Order(context.Background(), in.g, envred.AlgSpectral); err != nil {
				closeStore()
				return nil, fmt.Errorf("filling the store with %s: %w", in.name, err)
			}
		}
		d, err := startDaemon(service.Config{Seed: seed, Store: ts}, r.tr != nil)
		if err != nil {
			closeStore()
			return nil, err
		}
		l = &orderLoad{d: d, sched: sched, reqs: reqs}
		stop := func() {
			d.stop()
			closeStore()
		}
		warm := make([]request, churnWarmUp)
		for i, k := range zipfSequence(seed, "churn.warm-up", churnZipf, churnResident, churnWarmUp) {
			warm[i] = request{in: resident[k], alg: envred.AlgSpectral}
		}
		if err := l.warmUp(warm, seed); err != nil {
			stop()
			return nil, err
		}
		return stop, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	s0 := ts.snapshot()
	w, delta, solves, err := l.run(seed)
	if err != nil {
		return err
	}
	sc := ts.snapshot().minus(s0)
	l.report(r, w, delta, solves)
	if r.tr != nil {
		orders := float64(len(l.reqs))
		r.set("store.get_ms", ratio(float64(sc.getNs)/1e6, orders))
		r.set("store.put_ms", ratio(float64(sc.putNs)/1e6, orders))
		r.set("store.gets", ratio(float64(sc.gets), orders))
		r.set("store.puts", ratio(float64(sc.puts), orders))
		r.set("store.hit_rate", ratio(float64(sc.hits), float64(sc.gets)))
	}
	return nil
}

// buildDir holds what a run leaves behind while it runs: the churn
// workload's store. The benchmark's build script uses it too.
const buildDir = ".bench_build"
