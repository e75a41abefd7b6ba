package service

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	envred "repro"
)

// metrics is the daemon's hand-rolled Prometheus registry: the handful of
// instruments /metrics exposes, rendered in the text exposition format.
// No external client library — counters are atomics, histograms take one
// short mutex per observation, and rendering sorts label sets so scrapes
// are deterministic.
type metrics struct {
	// orders by {algorithm,status}: status ∈ ok|timeout|invalid|error.
	orders *counterVec
	// graph-cache traffic at admission: a hit means the tenant Session
	// already held the request's graph content (Session.Intern), so its
	// memoized artifacts (eigensolve, roots, subgraphs) apply.
	cacheHits   counter
	cacheMisses counter
	// textHits counts admitted requests whose Matrix Market text matched
	// the digest of a resident graph's, so decoding skipped the parse.
	// Each is also a cache hit unless the graph was evicted in between.
	textHits counter
	// jobs by terminal {status}: done|failed.
	jobs *counterVec
	// batches counts /v1/order/batch documents served (their per-item
	// outcomes land in orders above, so orders_total keeps meaning
	// "orderings" whether they arrived alone or batched).
	batches counter
	// latency distributions, in seconds. eigensolve observes only spectral
	// answers whose cached flag is false (the graph was not resident and
	// the solve did not come from the store), so it tracks solver latency,
	// not cache serving.
	orderSeconds *histogram
	eigenSeconds *histogram
	// store is the daemon's counted persistent-store handle (nil without
	// Config.Store); its hit/miss/error counters are read at render time so
	// the exposition and the store never disagree. storeSeconds tracks the
	// wall-clock of every store operation (get/put/delete), keeping
	// persistent-tier latency distinguishable from the in-memory cache
	// traffic above.
	store        *envred.CountedStore
	storeSeconds *histogram
	// resilient is the store's fault-tolerance handle (nil when the store
	// is not wrapped in a ResilientStore); breaker state and retry counters
	// are likewise read from it at render time.
	resilient *envred.ResilientStore
	// live state.
	inFlight   gauge
	jobsQueued gauge
}

func newMetrics() *metrics {
	buckets := []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
	return &metrics{
		orders:       newCounterVec("algorithm", "status"),
		jobs:         newCounterVec("status"),
		orderSeconds: newHistogram(buckets),
		eigenSeconds: newHistogram(buckets),
		storeSeconds: newHistogram(buckets),
	}
}

// writeTo renders every instrument in Prometheus text format.
func (m *metrics) writeTo(w io.Writer) {
	writeHeader(w, "envorderd_orders_total", "counter", "Orderings served, by algorithm and terminal status.")
	m.orders.writeTo(w, "envorderd_orders_total")
	writeHeader(w, "envorderd_cache_hits_total", "counter", "Order/fiedler requests whose graph was already resident in the tenant graph cache.")
	fmt.Fprintf(w, "envorderd_cache_hits_total %d\n", m.cacheHits.value())
	writeHeader(w, "envorderd_cache_misses_total", "counter", "Order/fiedler requests that interned a new graph.")
	fmt.Fprintf(w, "envorderd_cache_misses_total %d\n", m.cacheMisses.value())
	writeHeader(w, "envorderd_body_digest_hits_total", "counter", "Order/fiedler graphs whose Matrix Market text matched a resident graph's SHA-256, so decoding skipped the parse.")
	fmt.Fprintf(w, "envorderd_body_digest_hits_total %d\n", m.textHits.value())
	writeHeader(w, "envorderd_batches_total", "counter", "Batch ordering documents served (per-item outcomes count in envorderd_orders_total).")
	fmt.Fprintf(w, "envorderd_batches_total %d\n", m.batches.value())
	writeHeader(w, "envorderd_jobs_total", "counter", "Async jobs finished, by terminal status.")
	m.jobs.writeTo(w, "envorderd_jobs_total")
	writeHeader(w, "envorderd_order_seconds", "histogram", "End-to-end ordering latency (queueing included).")
	m.orderSeconds.writeTo(w, "envorderd_order_seconds")
	writeHeader(w, "envorderd_eigensolve_seconds", "histogram", "Latency of orderings that ran a fresh eigensolve (cold graph, spectral-family algorithm).")
	m.eigenSeconds.writeTo(w, "envorderd_eigensolve_seconds")
	if m.store != nil {
		st := m.store.Stats()
		writeHeader(w, "envorderd_store_hits_total", "counter", "Persistent-store reads that returned a valid artifact.")
		fmt.Fprintf(w, "envorderd_store_hits_total %d\n", st.Hits)
		writeHeader(w, "envorderd_store_misses_total", "counter", "Persistent-store reads that found no entry.")
		fmt.Fprintf(w, "envorderd_store_misses_total %d\n", st.Misses)
		writeHeader(w, "envorderd_store_errors_total", "counter", "Persistent-store operations that failed (corrupt entries included); each degraded to a miss.")
		fmt.Fprintf(w, "envorderd_store_errors_total %d\n", st.Errors)
		writeHeader(w, "envorderd_store_puts_total", "counter", "Artifacts written back to the persistent store.")
		fmt.Fprintf(w, "envorderd_store_puts_total %d\n", st.Puts)
		writeHeader(w, "envorderd_store_seconds", "histogram", "Persistent-store operation latency (get/put/delete).")
		m.storeSeconds.writeTo(w, "envorderd_store_seconds")
	}
	if m.resilient != nil {
		rs := m.resilient.Stats()
		writeHeader(w, "envorderd_store_breaker_state", "gauge", "Circuit breaker position: 0=closed, 1=open, 2=half-open.")
		fmt.Fprintf(w, "envorderd_store_breaker_state %d\n", int(rs.State))
		degraded := 0
		if rs.Degraded {
			degraded = 1
		}
		writeHeader(w, "envorderd_store_degraded", "gauge", "1 while the breaker is not closed (store traffic degraded to cache-only).")
		fmt.Fprintf(w, "envorderd_store_degraded %d\n", degraded)
		writeHeader(w, "envorderd_store_retries_total", "counter", "Extra store attempts spent on transient backend errors.")
		fmt.Fprintf(w, "envorderd_store_retries_total %d\n", rs.Retries)
		writeHeader(w, "envorderd_store_timeouts_total", "counter", "Store attempts abandoned at the per-operation timeout.")
		fmt.Fprintf(w, "envorderd_store_timeouts_total %d\n", rs.Timeouts)
		writeHeader(w, "envorderd_store_fastfails_total", "counter", "Store operations refused without touching the backend while the breaker was open.")
		fmt.Fprintf(w, "envorderd_store_fastfails_total %d\n", rs.FastFails)
		writeHeader(w, "envorderd_store_put_drops_total", "counter", "Artifact writebacks dropped after exhausting retries (the in-memory cache still holds them).")
		fmt.Fprintf(w, "envorderd_store_put_drops_total %d\n", rs.PutDrops)
		writeHeader(w, "envorderd_store_breaker_trips_total", "counter", "Closed-to-open breaker transitions after consecutive backend failures.")
		fmt.Fprintf(w, "envorderd_store_breaker_trips_total %d\n", rs.Trips)
		writeHeader(w, "envorderd_store_breaker_recoveries_total", "counter", "Breaker recoveries to closed after a healthy probe.")
		fmt.Fprintf(w, "envorderd_store_breaker_recoveries_total %d\n", rs.Recoveries)
	}
	writeHeader(w, "envorderd_in_flight", "gauge", "Orderings currently executing or queued on the solve pool.")
	fmt.Fprintf(w, "envorderd_in_flight %d\n", m.inFlight.value())
	writeHeader(w, "envorderd_jobs_queued", "gauge", "Async jobs waiting for a worker.")
	fmt.Fprintf(w, "envorderd_jobs_queued %d\n", m.jobsQueued.value())
}

func writeHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// counter ---------------------------------------------------------------------

type counter struct{ v atomic.Int64 }

func (c *counter) inc()         { c.v.Add(1) }
func (c *counter) value() int64 { return c.v.Load() }

// gauge -----------------------------------------------------------------------

type gauge struct{ v atomic.Int64 }

func (g *gauge) add(d int64)  { g.v.Add(d) }
func (g *gauge) value() int64 { return g.v.Load() }

// counterVec ------------------------------------------------------------------

// counterVec is a labeled counter family; the key is the label values
// joined in declaration order.
type counterVec struct {
	labels []string
	mu     sync.Mutex
	vals   map[string]*counter
}

func newCounterVec(labels ...string) *counterVec {
	return &counterVec{labels: labels, vals: map[string]*counter{}}
}

func (v *counterVec) inc(labelValues ...string) {
	if len(labelValues) != len(v.labels) {
		panic("service: counterVec label arity mismatch")
	}
	key := strings.Join(labelValues, "\x00")
	v.mu.Lock()
	c, ok := v.vals[key]
	if !ok {
		c = &counter{}
		v.vals[key] = c
	}
	v.mu.Unlock()
	c.inc()
}

func (v *counterVec) writeTo(w io.Writer, name string) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.vals))
	for k := range v.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := make([]string, 0, len(keys))
	for _, k := range keys {
		parts := strings.Split(k, "\x00")
		pairs := make([]string, len(parts))
		for i, lab := range v.labels {
			pairs[i] = fmt.Sprintf("%s=%q", lab, parts[i])
		}
		lines = append(lines, fmt.Sprintf("%s{%s} %d", name, strings.Join(pairs, ","), v.vals[k].value()))
	}
	v.mu.Unlock()
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// histogram -------------------------------------------------------------------

// histogram is a fixed-bucket Prometheus histogram (cumulative buckets,
// +Inf, _sum and _count on render).
type histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []int64
	sum    float64
	total  int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds))}
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
		}
	}
	h.sum += v
	h.total++
	h.mu.Unlock()
}

func (h *histogram) writeTo(w io.Writer, name string) {
	h.mu.Lock()
	counts := append([]int64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()
	for i, b := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, trimFloat(b), counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(w, "%s_sum %g\n", name, sum)
	fmt.Fprintf(w, "%s_count %d\n", name, total)
}

func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", f), "0"), ".")
}
