package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	envred "repro"
	"repro/internal/service"
)

type batchReply struct {
	Algorithm string        `json:"algorithm"`
	Count     int           `json:"count"`
	Failed    int           `json:"failed"`
	Results   []*orderReply `json:"results"`
	Errors    []struct {
		Index   int    `json:"index"`
		Message string `json:"error"`
	} `json:"errors"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func postBatch(t *testing.T, url, doc string) (*http.Response, []byte) {
	t.Helper()
	return postMM(t, url, []byte(doc), map[string]string{"Content-Type": "application/json"})
}

// TestOrderBatchEndpointMatchesSingleton pins the wire contract: each batch
// item's permutation and envelope equal a singleton /v1/order (and the
// local library) on the same graph, results align by index, and the second
// round is served entirely from the interned graphs.
func TestOrderBatchEndpointMatchesSingleton(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Seed: 1})
	grids := []*envred.Graph{envred.Grid(14, 9), envred.Grid(7, 7), envred.Grid(23, 4)}

	sess := envred.NewSession(envred.SessionOptions{Seed: 7})
	want := make([]envred.Result, len(grids))
	for i, g := range grids {
		r, err := sess.Order(context.Background(), g, "spectral")
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	items := make([]string, len(grids))
	for i, g := range grids {
		mm, err := json.Marshal(string(mmBody(t, g)))
		if err != nil {
			t.Fatal(err)
		}
		items[i] = fmt.Sprintf(`{"matrix_market":%s}`, mm)
	}
	doc := fmt.Sprintf(`{"algorithm":"spectral","seed":7,"items":[%s]}`, strings.Join(items, ","))

	for round := 0; round < 2; round++ {
		resp, body := postBatch(t, ts.URL+"/v1/order/batch", doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, body)
		}
		var rep batchReply
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Count != len(grids) || rep.Failed != 0 || len(rep.Results) != len(grids) {
			t.Fatalf("round %d: count=%d failed=%d results=%d", round, rep.Count, rep.Failed, len(rep.Results))
		}
		for i, item := range rep.Results {
			if item == nil {
				t.Fatalf("round %d: results[%d] is null", round, i)
			}
			if item.Algorithm != "SPECTRAL" || item.N != grids[i].N() {
				t.Fatalf("round %d item %d: algorithm=%q n=%d", round, i, item.Algorithm, item.N)
			}
			for k := range item.Perm {
				if item.Perm[k] != want[i].Perm[k] {
					t.Fatalf("round %d item %d: perm[%d] = %d, library says %d", round, i, k, item.Perm[k], want[i].Perm[k])
				}
			}
			if item.Envelope.Esize != want[i].Stats.Esize {
				t.Fatalf("round %d item %d: esize %d, want %d", round, i, item.Envelope.Esize, want[i].Stats.Esize)
			}
			if item.Cached != (round == 1) {
				t.Fatalf("round %d item %d: cached=%v", round, i, item.Cached)
			}
		}
	}
}

// TestOrderBatchGraphJSONAndPartialFailure pins per-item independence on
// the wire: a malformed item fails alone (failed=1, its index in errors,
// null at its result slot) while its neighbors complete.
func TestOrderBatchGraphJSONAndPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	doc := `{"algorithm":"rcm","items":[
		{"graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]}},
		{"graph":{"n":2,"edges":[[0,5]]}},
		{"matrix_market":"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n"}
	]}`
	resp, body := postBatch(t, ts.URL+"/v1/order/batch", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rep batchReply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Count != 3 || rep.Failed != 1 || len(rep.Errors) != 1 || rep.Errors[0].Index != 1 {
		t.Fatalf("count=%d failed=%d errors=%+v", rep.Count, rep.Failed, rep.Errors)
	}
	if rep.Results[1] != nil {
		t.Fatalf("failed item has a result: %+v", rep.Results[1])
	}
	if rep.Results[0] == nil || len(rep.Results[0].Perm) != 4 {
		t.Fatalf("item 0 incomplete: %+v", rep.Results[0])
	}
	if rep.Results[2] == nil || len(rep.Results[2].Perm) != 3 {
		t.Fatalf("item 2 incomplete: %+v", rep.Results[2])
	}
}

// TestOrderBatchValidation pins the document-level 400s.
func TestOrderBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	for _, tc := range []struct {
		name, doc, wantFrag, query string
	}{
		{"no-algorithm", `{"items":[{"graph":{"n":1,"edges":[]}}]}`, "must name an algorithm", ""},
		{"auto", `{"algorithm":"auto","items":[{"graph":{"n":1,"edges":[]}}]}`, "not batchable", ""},
		{"weighted", `{"algorithm":"weighted","items":[{"graph":{"n":1,"edges":[]}}]}`, "not batchable", ""},
		{"unknown", `{"algorithm":"nope","items":[{"graph":{"n":1,"edges":[]}}]}`, "unknown algorithm", ""},
		{"empty", `{"algorithm":"rcm","items":[]}`, "no items", ""},
		{"bad-json", `{"algorithm":`, "bad JSON", ""},
		{"bad-timeout", `{"algorithm":"rcm","items":[{"graph":{"n":1,"edges":[]}}]}`, "bad timeout", "?timeout=banana"},
	} {
		resp, body := postBatch(t, ts.URL+"/v1/order/batch"+tc.query, tc.doc)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), tc.wantFrag) {
			t.Fatalf("%s: body %s does not mention %q", tc.name, body, tc.wantFrag)
		}
	}
}

// TestOrderBatchMetrics pins the observability contract: a batch document
// bumps envorderd_batches_total once and envorderd_orders_total by its
// item count, so orders_total keeps meaning "orderings served".
func TestOrderBatchMetrics(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	doc := `{"algorithm":"rcm","items":[
		{"graph":{"n":3,"edges":[[0,1],[1,2]]}},
		{"graph":{"n":4,"edges":[[0,1],[1,2],[2,3]]}}
	]}`
	if resp, body := postBatch(t, ts.URL+"/v1/order/batch", doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "envorderd_batches_total 1") {
		t.Fatalf("metrics missing batches_total 1:\n%s", text)
	}
	if !strings.Contains(text, `envorderd_orders_total{algorithm="RCM",status="ok"} 2`) {
		t.Fatalf("metrics missing 2 ok RCM orders:\n%s", text)
	}
}

// seedEchoInit registers the SEED-ECHO test orderer once per process: it
// returns the random permutation its request seed selects, so a reply
// shows which seed the daemon ran with.
var seedEchoInit sync.Once

func registerSeedEcho(t *testing.T) {
	t.Helper()
	seedEchoInit.Do(func() {
		envred.MustRegister("seed-echo", envred.OrdererFunc(func(ctx context.Context, g *envred.Graph, req *envred.OrderRequest) (envred.Result, error) {
			return envred.Result{Perm: envred.RandomPerm(g.N(), req.Seed)}, nil
		}))
	})
}

// TestOrderBatchQuerySeed pins that batch documents take their parameters
// from the query like every other ordering endpoint, with the body
// winning: ?seed=7 on a seedless document orders exactly as "seed":7.
func TestOrderBatchQuerySeed(t *testing.T) {
	registerSeedEcho(t)
	_, ts := newTestServer(t, service.Config{Seed: 1})
	perms := func(query, seed string) string {
		t.Helper()
		doc := `{"algorithm":"seed-echo",` + seed + `"items":[{"graph":{"n":40,"edges":[]}},{"graph":{"n":25,"edges":[[0,1]]}}]}`
		resp, body := postBatch(t, ts.URL+"/v1/order/batch"+query, doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", query, seed, resp.StatusCode, body)
		}
		var rep batchReply
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		out := ""
		for i, item := range rep.Results {
			if item == nil {
				t.Fatalf("%s %s: item %d failed: %+v", query, seed, i, rep.Errors)
			}
			out += fmt.Sprint(item.Perm)
		}
		return out
	}
	want := perms("", `"seed":7,`)
	if got := perms("?seed=7", ""); got != want {
		t.Fatalf("?seed=7 ordered %s, \"seed\":7 ordered %s", got, want)
	}
	if got := perms("?seed=3", `"seed":7,`); got != want {
		t.Fatalf("the body's seed must win over the query's: got %s, want %s", got, want)
	}
	if perms("", "") == want {
		t.Fatal("seed 7 orders like the server default; the test cannot tell them apart")
	}
}
