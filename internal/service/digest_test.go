package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	envred "repro"
	"repro/internal/service"
)

// scrapeMetrics reads the server's /metrics.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, body := getWith(t, url+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	return parsePrometheus(t, string(body))
}

// withComment is body with one more comment line after the header: the
// same graph in other text.
func withComment(body []byte) []byte {
	i := bytes.IndexByte(body, '\n') + 1
	return slices.Concat(body[:i], []byte("% reposted with a comment\n"), body[i:])
}

// A repost of the same text is found by its digest; a comment-only
// variant misses the digest, hits by fingerprint and is found by its own
// digest next time, as is a batch item carrying that text as JSON, while
// the first text, whose digest the variant's replaced, hits by
// fingerprint again; every reply carries the same ordering, and cached
// means what it meant.
func TestBodyDigestWarmPath(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Seed: 2})
	body := mmBody(t, envred.Grid(13, 9))
	url := ts.URL + "/v1/order?algorithm=sloan"
	steps := []struct {
		body       []byte
		cached     bool
		digestHits float64
	}{
		{body, false, 0},
		{body, true, 1},
		{withComment(body), true, 1},
		{withComment(body), true, 2},
	}
	var first []int32
	for i, st := range steps {
		rep := postCached(t, url, st.body)
		if i == 0 {
			first = rep.Perm
		}
		m := scrapeMetrics(t, ts.URL)
		if rep.Cached != st.cached || !slices.Equal(rep.Perm, first) {
			t.Fatalf("step %d: cached %v, perm equal %v; want cached %v and the first ordering", i, rep.Cached, slices.Equal(rep.Perm, first), st.cached)
		}
		if got := m["envorderd_body_digest_hits_total"]; got != st.digestHits {
			t.Fatalf("step %d: %v digest hits, want %v", i, got, st.digestHits)
		}
		if got := m["envorderd_cache_hits_total"]; got != float64(i) {
			t.Fatalf("step %d: %v cache hits, want %d", i, got, i)
		}
	}

	doc, err := json.Marshal(map[string]any{
		"algorithm": "sloan",
		"items":     []map[string]string{{"matrix_market": string(withComment(body))}, {"matrix_market": string(body)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postMM(t, ts.URL+"/v1/order/batch", doc, map[string]string{"Content-Type": "application/json"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, raw)
	}
	var batch struct {
		Results []cachedReply `json:"results"`
	}
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("batch: %d results, want 2", len(batch.Results))
	}
	for i, r := range batch.Results {
		if !r.Cached || !slices.Equal(r.Perm, first) {
			t.Fatalf("batch item %d: cached %v, perm equal %v; want true and the first ordering", i, r.Cached, slices.Equal(r.Perm, first))
		}
	}
	m := scrapeMetrics(t, ts.URL)
	if got := m["envorderd_body_digest_hits_total"]; got != 3 {
		t.Fatalf("%v digest hits after the batch, want 3: the variant's text only", got)
	}
	if got := m["envorderd_cache_hits_total"]; got != 5 {
		t.Fatalf("%v cache hits after the batch, want 5", got)
	}
}

// A digest never outlives its graph: after eviction a repost of the same
// text is parsed again and replies cached=false.
func TestRepostAfterEvictionIsNotCached(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Seed: 2, CacheGraphs: 1})
	a, b := mmBody(t, envred.Grid(11, 9)), mmBody(t, envred.Path(40))
	url := ts.URL + "/v1/order?algorithm=rcm"
	first := postCached(t, url, a)
	if !postCached(t, url, a).Cached {
		t.Fatal("repost of a resident graph not cached")
	}
	postCached(t, url, b) // evicts a's graph
	again := postCached(t, url, a)
	if again.Cached || !slices.Equal(again.Perm, first.Perm) {
		t.Fatalf("repost after eviction: cached %v, same ordering %v; want false, true", again.Cached, slices.Equal(again.Perm, first.Perm))
	}
	if got := scrapeMetrics(t, ts.URL)["envorderd_body_digest_hits_total"]; got != 1 {
		t.Fatalf("%v digest hits, want only the repost before eviction", got)
	}
}
