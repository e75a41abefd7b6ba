// Command loadgen drives concurrent ordering traffic through a live
// envorderd daemon and reports throughput and latency percentiles — the
// CI load-test smoke and a handy capacity probe.
//
// It fires -requests orderings from -concurrency goroutines, spread
// round-robin over a set of -distinct grid graphs and the -algorithms
// list, then:
//
//   - fails (exit 1) on any request error,
//   - fails when the p99 latency exceeds -max-p99,
//   - with -verify-metrics, scrapes /metrics before and after and fails
//     unless the daemon's ok-order count grew by exactly the number of
//     successful requests and the graph-cache hit/miss deltas add up
//     (hits + misses = orders, misses = distinct graphs on a quiet
//     daemon) — the end-to-end check that the observability plane agrees
//     with the traffic actually served,
//   - with -out, writes a BENCH_service.json artifact row (benchjson-style
//     schema: reqs/sec, p50/p99 latency, cache hit rate).
//
// Example:
//
//	loadgen -url http://127.0.0.1:8080 -requests 600 -concurrency 200 \
//	    -grid 60x60 -algorithms rcm,sloan,spectral -verify-metrics \
//	    -out BENCH_service.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	envred "repro"
	"repro/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		urlFlag    = flag.String("url", "", "base URL of the envorderd daemon (required)")
		apiKey     = flag.String("api-key", "", "API key (for daemons running with -api-keys)")
		requests   = flag.Int("requests", 600, "total orderings to drive")
		conc       = flag.Int("concurrency", 200, "concurrent in-flight requests")
		grid       = flag.String("grid", "60x60", "base WxH grid problem size")
		distinct   = flag.Int("distinct", 4, "number of distinct graphs (grid size variants) in the mix")
		algsFlag   = flag.String("algorithms", "rcm,sloan,spectral", "comma-separated algorithm rotation")
		seed       = flag.Int64("seed", 1, "ordering seed")
		timeout    = flag.Duration("timeout", 2*time.Minute, "per-request client-side timeout")
		maxP99     = flag.Duration("max-p99", 60*time.Second, "fail when p99 latency exceeds this")
		verify     = flag.Bool("verify-metrics", false, "scrape /metrics before/after and check order counts and cache hit/miss deltas")
		out        = flag.String("out", "", "write a BENCH_service.json artifact to this file")
		warmupWait = flag.Duration("warmup-wait", 10*time.Second, "how long to wait for /healthz before giving up")
	)
	flag.Parse()
	if *urlFlag == "" {
		log.Fatal("-url is required")
	}
	var w, h int
	if _, err := fmt.Sscanf(*grid, "%dx%d", &w, &h); err != nil || w < 2 || h < 2 {
		log.Fatalf("bad -grid %q, want WxH with W,H >= 2", *grid)
	}
	algs := strings.Split(*algsFlag, ",")
	for i := range algs {
		algs[i] = strings.TrimSpace(algs[i])
	}
	if *distinct < 1 {
		*distinct = 1
	}

	opts := []client.Option{client.WithRetries(0, 0)} // errors must surface, not be papered over
	if *apiKey != "" {
		opts = append(opts, client.WithAPIKey(*apiKey))
	}
	c := client.New(*urlFlag, opts...)
	ctx := context.Background()

	waitHealthy(ctx, c, *warmupWait)

	// Distinct graphs: width varies so every content fingerprint differs.
	graphs := make([]*envred.Graph, *distinct)
	for i := range graphs {
		graphs[i] = envred.Grid(w+i, h)
	}

	var before metricsSnapshot
	if *verify {
		before = scrape(ctx, c)
	}

	log.Printf("driving %d orderings at concurrency %d over %d graph(s) x %s",
		*requests, *conc, *distinct, strings.Join(algs, ","))
	durations := make([]time.Duration, *requests)
	errs := make([]error, *requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < *conc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *requests {
					return
				}
				reqStart := time.Now()
				rctx, cancel := context.WithTimeout(ctx, *timeout)
				res, err := c.Order(rctx, graphs[i%len(graphs)], client.OrderRequest{
					Algorithm: algs[i%len(algs)],
					Seed:      *seed,
				})
				cancel()
				durations[i] = time.Since(reqStart)
				if err != nil {
					errs[i] = err
				} else if len(res.Perm) != graphs[i%len(graphs)].N() {
					errs[i] = fmt.Errorf("short permutation: %d of %d", len(res.Perm), graphs[i%len(graphs)].N())
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	failures := 0
	for i, err := range errs {
		if err != nil {
			failures++
			if failures <= 5 {
				log.Printf("request %d failed: %v", i, err)
			}
		}
	}
	successes := *requests - failures

	sorted := append([]time.Duration(nil), durations...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p50 := percentile(sorted, 0.50)
	p99 := percentile(sorted, 0.99)
	rps := float64(successes) / wall.Seconds()
	log.Printf("done: %d ok, %d failed in %.2fs — %.1f req/s, p50 %s, p99 %s",
		successes, failures, wall.Seconds(), rps, p50, p99)

	exit := 0
	if failures > 0 {
		log.Printf("FAIL: %d request(s) errored (want 0)", failures)
		exit = 1
	}
	if p99 > *maxP99 {
		log.Printf("FAIL: p99 %s exceeds -max-p99 %s", p99, *maxP99)
		exit = 1
	}

	hitRate := math.NaN()
	if *verify {
		after := scrape(ctx, c)
		dOK := after.ordersOK - before.ordersOK
		dHits := after.cacheHits - before.cacheHits
		dMiss := after.cacheMisses - before.cacheMisses
		if dHits+dMiss > 0 {
			hitRate = float64(dHits) / float64(dHits+dMiss)
		}
		log.Printf("metrics: orders ok +%d, cache hits +%d, misses +%d (hit rate %.3f)", dOK, dHits, dMiss, hitRate)
		if dOK != int64(successes) {
			log.Printf("FAIL: daemon counted %d ok orders, loadgen saw %d successes", dOK, successes)
			exit = 1
		}
		if dHits+dMiss != int64(*requests) {
			log.Printf("FAIL: cache hit+miss delta %d != %d requests", dHits+dMiss, *requests)
			exit = 1
		}
		if failures == 0 && dMiss != int64(*distinct) {
			log.Printf("FAIL: cache miss delta %d != %d distinct graphs (is the daemon quiet?)", dMiss, *distinct)
			exit = 1
		}
	}

	var meanNs float64
	if successes > 0 {
		var sum time.Duration
		for i, d := range durations {
			if errs[i] == nil {
				sum += d
			}
		}
		meanNs = float64(sum) / float64(successes)
	}

	rows := []benchmark{singletonRow(*grid, *conc, successes, failures, meanNs, rps, p50, p99, hitRate)}

	if *out != "" {
		if err := writeArtifact(*out, rows); err != nil {
			log.Printf("FAIL: writing %s: %v", *out, err)
			exit = 1
		} else {
			log.Printf("wrote %s", *out)
		}
	}
	os.Exit(exit)
}

func waitHealthy(ctx context.Context, c *client.Client, budget time.Duration) {
	deadline := time.Now().Add(budget)
	for {
		hctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		err := c.Health(hctx)
		cancel()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			log.Fatalf("daemon not healthy after %s: %v", budget, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// metricsSnapshot is the slice of /metrics loadgen verifies.
type metricsSnapshot struct {
	ordersOK    int64
	cacheHits   int64
	cacheMisses int64
}

// scrape pulls /metrics and folds out the counters loadgen checks. The
// parser is deliberately narrow: counter lines are `name{labels} value`
// or `name value`.
func scrape(ctx context.Context, c *client.Client) metricsSnapshot {
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	text, err := c.Metrics(sctx)
	if err != nil {
		log.Fatalf("scraping /metrics: %v", err)
	}
	var snap metricsSnapshot
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		name, valStr := fields[0], fields[1]
		var val int64
		if _, err := fmt.Sscanf(valStr, "%d", &val); err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "envorderd_orders_total{") && strings.Contains(name, `status="ok"`):
			snap.ordersOK += val
		case name == "envorderd_cache_hits_total":
			snap.cacheHits = val
		case name == "envorderd_cache_misses_total":
			snap.cacheMisses = val
		}
	}
	return snap
}

// artifact mirrors the BENCH_pipeline.json row shape (cmd/benchjson) so
// downstream tooling reads both files the same way.
type artifact struct {
	Schema     string      `json:"schema"`
	Benchmarks []benchmark `json:"benchmarks"`
}

type benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics"`
}

func singletonRow(grid string, conc, successes, failures int, meanNs, rps float64, p50, p99 time.Duration, hitRate float64) benchmark {
	m := map[string]float64{
		"reqs_per_sec": rps,
		"p50_ms":       float64(p50) / float64(time.Millisecond),
		"p99_ms":       float64(p99) / float64(time.Millisecond),
		"errors":       float64(failures),
	}
	if !math.IsNaN(hitRate) {
		m["cache_hit_rate"] = hitRate
	}
	return benchmark{
		Name:       fmt.Sprintf("Service/order/grid%s/c%d", grid, conc),
		Iterations: int64(successes),
		NsPerOp:    meanNs,
		Metrics:    m,
	}
}

func writeArtifact(path string, rows []benchmark) error {
	doc := artifact{
		Schema:     "repro/bench_service/v1",
		Benchmarks: rows,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
