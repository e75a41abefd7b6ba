package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	envred "repro"
	"repro/internal/service"
)

// sleepyInit registers two test orderers once per process: SLEEPY blocks
// until its context is cancelled and returns the typed cancellation error
// with a usable fallback Fiedler vector; SLEEPY-EMPTY does the same with
// no fallback. They drive the deterministic timeout-path tests.
var sleepyInit sync.Once

func registerSleepy(t *testing.T) {
	t.Helper()
	sleepyInit.Do(func() {
		envred.MustRegister("sleepy", envred.OrdererFunc(func(ctx context.Context, g *envred.Graph, req *envred.OrderRequest) (envred.Result, error) {
			<-ctx.Done()
			vec := make([]float64, g.N())
			for i := range vec {
				vec[i] = float64(i)
			}
			return envred.Result{}, &envred.ErrCancelled{Cause: ctx.Err(), Vector: vec}
		}))
		envred.MustRegister("sleepy-empty", envred.OrdererFunc(func(ctx context.Context, g *envred.Graph, req *envred.OrderRequest) (envred.Result, error) {
			<-ctx.Done()
			return envred.Result{}, &envred.ErrCancelled{Cause: ctx.Err()}
		}))
	})
}

func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return svc, ts
}

// mmBody renders g as a Matrix Market body, the service's native wire
// encoding.
func mmBody(t *testing.T, g *envred.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := envred.WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postMM(t *testing.T, url string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

type orderReply struct {
	Algorithm string  `json:"algorithm"`
	N         int     `json:"n"`
	Perm      []int32 `json:"perm"`
	Envelope  struct {
		Esize     int64 `json:"esize"`
		Bandwidth int   `json:"bandwidth"`
	} `json:"envelope"`
	Cached    bool    `json:"cached"`
	Error     string  `json:"error"`
	BestSoFar *bool   `json:"best_so_far"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func TestOrderSyncMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Seed: 1})
	g := envred.Grid(20, 15)

	want, err := envred.NewSession(envred.SessionOptions{Seed: 7}).Order(context.Background(), g, "rcm")
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		resp, body := postMM(t, ts.URL+"/v1/order?algorithm=rcm&seed=7", mmBody(t, g), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", i, resp.StatusCode, body)
		}
		var rep orderReply
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if rep.Algorithm != "RCM" || rep.N != g.N() {
			t.Fatalf("round %d: got algorithm=%q n=%d", i, rep.Algorithm, rep.N)
		}
		if len(rep.Perm) != g.N() {
			t.Fatalf("round %d: perm length %d, want %d", i, len(rep.Perm), g.N())
		}
		for k := range rep.Perm {
			if rep.Perm[k] != want.Perm[k] {
				t.Fatalf("round %d: perm[%d] = %d, local library says %d", i, k, rep.Perm[k], want.Perm[k])
			}
		}
		if rep.Envelope.Esize != want.Stats.Esize {
			t.Fatalf("round %d: esize %d, want %d", i, rep.Envelope.Esize, want.Stats.Esize)
		}
		if rep.Cached != (i == 1) {
			t.Fatalf("round %d: cached=%v (interner should hit only on the repeat)", i, rep.Cached)
		}
	}
}

func TestOrderJSONGraphBody(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	doc := `{"algorithm":"sloan","seed":3,"graph":{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}}`
	resp, body := postMM(t, ts.URL+"/v1/order", []byte(doc), map[string]string{"Content-Type": "application/json"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rep orderReply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != "SLOAN" || len(rep.Perm) != 4 {
		t.Fatalf("got %q perm=%v", rep.Algorithm, rep.Perm)
	}
}

func TestAuthRejection(t *testing.T) {
	_, ts := newTestServer(t, service.Config{APIKeys: map[string]string{"sesame": "acme"}})
	body := mmBody(t, envred.Path(5))

	resp, _ := postMM(t, ts.URL+"/v1/order?algorithm=rcm", body, nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no key: status %d, want 401", resp.StatusCode)
	}
	resp, _ = postMM(t, ts.URL+"/v1/order?algorithm=rcm", body, map[string]string{"X-API-Key": "wrong"})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad key: status %d, want 401", resp.StatusCode)
	}
	resp, _ = postMM(t, ts.URL+"/v1/order?algorithm=rcm", body, map[string]string{"Authorization": "Bearer sesame"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good key: status %d, want 200", resp.StatusCode)
	}
	resp, _ = postMM(t, ts.URL+"/v1/order?algorithm=rcm", body, map[string]string{"X-API-Key": "sesame"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good key via X-API-Key: status %d, want 200", resp.StatusCode)
	}
}

func TestOversizeBody413(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxBodyBytes: 128})
	big := mmBody(t, envred.Grid(40, 40))
	if len(big) <= 128 {
		t.Fatalf("fixture too small: %d bytes", len(big))
	}
	resp, body := postMM(t, ts.URL+"/v1/order?algorithm=rcm", big, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
	}
	var rep orderReply
	if err := json.Unmarshal(body, &rep); err != nil || rep.Error == "" {
		t.Fatalf("413 body should be a JSON error document, got %s (err %v)", body, err)
	}
}

func TestMalformedRequests400(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	cases := []struct {
		name string
		body string
		hdr  map[string]string
		url  string
	}{
		{name: "garbage matrix market", body: "this is not a matrix", url: "/v1/order?algorithm=rcm"},
		{name: "empty body", body: "", url: "/v1/order?algorithm=rcm"},
		{name: "bad json", body: "{", hdr: map[string]string{"Content-Type": "application/json"}, url: "/v1/order"},
		{name: "json without graph", body: `{"algorithm":"rcm"}`, hdr: map[string]string{"Content-Type": "application/json"}, url: "/v1/order"},
		{name: "edge out of range", body: `{"algorithm":"rcm","graph":{"n":3,"edges":[[0,7]]}}`, hdr: map[string]string{"Content-Type": "application/json"}, url: "/v1/order"},
		{name: "negative n", body: `{"algorithm":"rcm","graph":{"n":-2}}`, hdr: map[string]string{"Content-Type": "application/json"}, url: "/v1/order"},
		{name: "unknown algorithm", body: `{"algorithm":"nope","graph":{"n":2,"edges":[[0,1]]}}`, hdr: map[string]string{"Content-Type": "application/json"}, url: "/v1/order"},
		{name: "bad seed", body: "x", url: "/v1/order?algorithm=rcm&seed=banana"},
		{name: "bad timeout", body: "x", url: "/v1/order?algorithm=rcm&timeout=banana"},
		{name: "weighted without weights", body: `{"algorithm":"weighted","graph":{"n":3,"edges":[[0,1],[1,2]]}}`, hdr: map[string]string{"Content-Type": "application/json"}, url: "/v1/order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postMM(t, ts.URL+tc.url, []byte(tc.body), tc.hdr)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			var rep orderReply
			if err := json.Unmarshal(body, &rep); err != nil || rep.Error == "" {
				t.Fatalf("400 body should be a JSON error document, got %s", body)
			}
		})
	}
}

// TestDeclaredVerticesBoundedByBody pins the decoder's allocation bound:
// a short body may not declare more vertices than its length plus a fixed
// allowance. Each of these ~100-byte requests declares 2³¹−1 vertices and
// must get 413 before any graph is built.
func TestDeclaredVerticesBoundedByBody(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	const mmHuge = "%%MatrixMarket matrix coordinate pattern symmetric\n2147483647 2147483647 0\n"
	jsonHdr := map[string]string{"Content-Type": "application/json"}
	cases := []struct {
		name, url, body string
		hdr             map[string]string
	}{
		{"matrix market body", "/v1/order?algorithm=rcm", mmHuge, nil},
		{"json graph", "/v1/order", `{"algorithm":"rcm","graph":{"n":2147483647,"edges":[]}}`, jsonHdr},
		{"batch graph item", "/v1/order/batch", `{"algorithm":"rcm","items":[{"graph":{"n":2147483647,"edges":[]}}]}`, jsonHdr},
		{"batch matrix market item", "/v1/order/batch", `{"algorithm":"rcm","items":[{"matrix_market":"` +
			strings.ReplaceAll(mmHuge, "\n", `\n`) + `"}]}`, jsonHdr},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tc := range cases {
		resp, body := postMM(t, ts.URL+tc.url, []byte(tc.body), tc.hdr)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413: %s", tc.name, resp.StatusCode, body)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Fatalf("%d requests allocated %d bytes, want < 16 MiB", len(cases), grew)
	}
}

func TestJobNotFound404(t *testing.T) {
	_, ts := newTestServer(t, service.Config{APIKeys: map[string]string{"ka": "a", "kb": "b"}})

	resp, body := getWith(t, ts.URL+"/v1/jobs/deadbeef", "ka")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404: %s", resp.StatusCode, body)
	}
	resp, _ = getWith(t, ts.URL+"/v1/jobs/deadbeef/result", "ka")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job result: status %d, want 404", resp.StatusCode)
	}

	// Jobs are tenant-scoped: tenant b must not see tenant a's job.
	resp, body = postMM(t, ts.URL+"/v1/jobs?algorithm=rcm", mmBody(t, envred.Path(6)), map[string]string{"X-API-Key": "ka"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("submit reply %s", body)
	}
	resp, _ = getWith(t, ts.URL+"/v1/jobs/"+st.ID, "kb")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant job peek: status %d, want 404", resp.StatusCode)
	}
	resp, _ = getWith(t, ts.URL+"/v1/jobs/"+st.ID, "ka")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("own job peek: status %d, want 200", resp.StatusCode)
	}
}

func getWith(t *testing.T, url, apiKey string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestTimeout503BestSoFar(t *testing.T) {
	registerSleepy(t)
	_, ts := newTestServer(t, service.Config{})
	g := envred.Grid(10, 10)

	// SLEEPY returns a usable fallback eigenpair when its deadline fires:
	// the service must answer 503 with best_so_far=true and the ordering
	// built from the fallback vector.
	resp, body := postMM(t, ts.URL+"/v1/order?algorithm=sleepy&timeout=50ms", mmBody(t, g), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	var rep orderReply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.BestSoFar == nil || !*rep.BestSoFar {
		t.Fatalf("best_so_far flag missing or false in %s", body)
	}
	if len(rep.Perm) != g.N() {
		t.Fatalf("best-so-far perm length %d, want %d", len(rep.Perm), g.N())
	}
	seen := make([]bool, g.N())
	for _, v := range rep.Perm {
		if v < 0 || int(v) >= g.N() || seen[v] {
			t.Fatalf("best-so-far perm is not a permutation: %v", rep.Perm)
		}
		seen[v] = true
	}

	// SLEEPY-EMPTY times out before anything usable exists: still 503,
	// flag present and false, no permutation.
	resp, body = postMM(t, ts.URL+"/v1/order?algorithm=sleepy-empty&timeout=50ms", mmBody(t, g), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	rep = orderReply{}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.BestSoFar == nil || *rep.BestSoFar {
		t.Fatalf("best_so_far should be present and false in %s", body)
	}
	if len(rep.Perm) != 0 {
		t.Fatalf("no fallback perm expected, got %v", rep.Perm)
	}
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	g := envred.Grid(15, 12)

	want, body := postMM(t, ts.URL+"/v1/order?algorithm=auto&seed=5", mmBody(t, g), nil)
	if want.StatusCode != http.StatusOK {
		t.Fatalf("sync reference: %d %s", want.StatusCode, body)
	}
	var ref orderReply
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatal(err)
	}

	resp, body := postMM(t, ts.URL+"/v1/jobs?algorithm=auto&seed=5", mmBody(t, g), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || (st.Status != "queued" && st.Status != "running") {
		t.Fatalf("submit reply %s", body)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = getWith(t, ts.URL+"/v1/jobs/"+st.ID+"/result", "")
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("result poll: status %d: %s", resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in 30s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	var got orderReply
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != "AUTO" || len(got.Perm) != g.N() {
		t.Fatalf("job result %q perm length %d", got.Algorithm, len(got.Perm))
	}
	for i := range got.Perm {
		if got.Perm[i] != ref.Perm[i] {
			t.Fatalf("async result diverges from sync at %d: %d vs %d", i, got.Perm[i], ref.Perm[i])
		}
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	resp, body := getWith(t, ts.URL+"/v1/algorithms", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc struct {
		Algorithms []string `json:"algorithms"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"AUTO": false, envred.AlgRCM: false, envred.AlgSpectral: false}
	for _, a := range doc.Algorithms {
		if _, ok := want[a]; ok {
			want[a] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("algorithm %s missing from %v", name, doc.Algorithms)
		}
	}
}

func TestFiedlerEndpoint(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Seed: 1})
	g := envred.Grid(12, 9)
	resp, body := postMM(t, ts.URL+"/v1/fiedler", mmBody(t, g), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		N       int       `json:"n"`
		Lambda2 float64   `json:"lambda2"`
		Vector  []float64 `json:"vector"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.N != g.N() || len(doc.Vector) != g.N() || doc.Lambda2 <= 0 {
		t.Fatalf("fiedler reply n=%d len=%d lambda2=%g", doc.N, len(doc.Vector), doc.Lambda2)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	resp, body := getWith(t, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || doc.Status != "ok" {
		t.Fatalf("healthz reply %s", body)
	}
}

// TestMetricsScrapeParses drives a few orders then checks that /metrics
// is well-formed Prometheus text exposition and that the counters agree
// with the traffic actually served.
func TestMetricsScrapeParses(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	g := envred.Grid(10, 8)
	const rounds = 3
	for i := 0; i < rounds; i++ {
		resp, body := postMM(t, ts.URL+"/v1/order?algorithm=rcm", mmBody(t, g), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("order %d: %d %s", i, resp.StatusCode, body)
		}
	}

	resp, body := getWith(t, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}

	metrics := parsePrometheus(t, string(body))
	if got := metrics[`envorderd_orders_total{algorithm="RCM",status="ok"}`]; got != rounds {
		t.Fatalf("orders ok = %g, want %d", got, rounds)
	}
	if got := metrics["envorderd_cache_misses_total"]; got != 1 {
		t.Fatalf("cache misses = %g, want 1 (one distinct graph)", got)
	}
	if got := metrics["envorderd_cache_hits_total"]; got != rounds-1 {
		t.Fatalf("cache hits = %g, want %d", got, rounds-1)
	}
	if got := metrics["envorderd_order_seconds_count"]; got != rounds {
		t.Fatalf("order_seconds count = %g, want %d", got, rounds)
	}
	if got := metrics["envorderd_in_flight"]; got != 0 {
		t.Fatalf("in_flight = %g, want 0 at rest", got)
	}
	for _, name := range []string{
		"envorderd_orders_total", "envorderd_cache_hits_total", "envorderd_cache_misses_total",
		"envorderd_jobs_total", "envorderd_order_seconds", "envorderd_eigensolve_seconds",
		"envorderd_in_flight", "envorderd_jobs_queued",
	} {
		if !strings.Contains(string(body), "# TYPE "+name+" ") {
			t.Fatalf("missing # TYPE for %s", name)
		}
	}
}

// parsePrometheus is a strict-enough text-exposition parser: every
// non-comment line must be `name[{labels}] value` with a float value.
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("line %d not parseable: %q", ln+1, line)
		}
		name, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d value %q: %v", ln+1, valStr, err)
		}
		if strings.Contains(name, "{") && !strings.HasSuffix(name, "}") {
			t.Fatalf("line %d has malformed labels: %q", ln+1, line)
		}
		out[name] = val
	}
	return out
}

// TestConcurrentMixedTraffic hammers one server from many goroutines with
// mixed sync orders and async jobs — the unit-level cousin of the CI load
// test, and the -race target for the tenant/session/jobstore locking.
func TestConcurrentMixedTraffic(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	graphs := []*envred.Graph{envred.Grid(12, 10), envred.Grid(13, 10), envred.Path(60)}
	algs := []string{"rcm", "sloan", "spectral", "auto"}
	const n = 24
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := graphs[i%len(graphs)]
			url := fmt.Sprintf("%s/v1/order?algorithm=%s&seed=2", ts.URL, algs[i%len(algs)])
			resp, body := postMM(t, url, mmBody(t, g), nil)
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("req %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var rep orderReply
			if err := json.Unmarshal(body, &rep); err != nil {
				errCh <- fmt.Errorf("req %d: %v", i, err)
				return
			}
			if len(rep.Perm) != g.N() {
				errCh <- fmt.Errorf("req %d: perm length %d want %d", i, len(rep.Perm), g.N())
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestShutdownDrainsJobs submits jobs and shuts down: every accepted job
// must reach a terminal state before Shutdown returns.
func TestShutdownDrainsJobs(t *testing.T) {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	g := envred.Grid(14, 11)

	ids := []string{}
	for i := 0; i < 4; i++ {
		resp, body := postMM(t, ts.URL+"/v1/jobs?algorithm=rcm", mmBody(t, g), nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		var st struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range ids {
		resp, body := getWith(t, ts.URL+"/v1/jobs/"+id+"/result", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %s not done after drain: %d %s", id, resp.StatusCode, body)
		}
	}

	// New submissions after shutdown are rejected.
	resp, _ := postMM(t, ts.URL+"/v1/jobs?algorithm=rcm", mmBody(t, g), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: status %d, want 503", resp.StatusCode)
	}
}
