package service_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	envred "repro"
	"repro/internal/service"
)

// readCountingStore counts the reads that reach the store it wraps.
type readCountingStore struct {
	envred.Store
	gets atomic.Int64
}

func (s *readCountingStore) Get(key envred.StoreKey) (*envred.StoreArtifact, error) {
	s.gets.Add(1)
	return s.Store.Get(key)
}

// cachedReply is the part of an order or fiedler reply these tests read.
type cachedReply struct {
	Perm   []int32   `json:"perm"`
	Vector []float64 `json:"vector"`
	Solve  *struct {
		FromStore bool `json:"from_store"`
	} `json:"solve"`
	Cached bool `json:"cached"`
}

func postCached(t *testing.T, url string, body []byte) cachedReply {
	t.Helper()
	resp, raw := postMM(t, url, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, raw)
	}
	var rep cachedReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	return rep
}

// TestCachedFlagAfterWeightedBurst pins that cached tells the truth after
// eviction. WEIGHTED graphs are not interned but do take slots in the
// tenant Session's LRU, so three of them evict a two-graph cache; the
// repeated SPECTRAL request must then report cached=false exactly when it
// pays for an eigensolve.
func TestCachedFlagAfterWeightedBurst(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Seed: 3, CacheGraphs: 2})
	body := mmBody(t, envred.Grid(14, 11))
	first := postCached(t, ts.URL+"/v1/order?algorithm=spectral", body)
	for _, g := range []*envred.Graph{envred.Grid(9, 8), envred.Grid(12, 5), envred.Grid(7, 13)} {
		postCached(t, ts.URL+"/v1/order?algorithm=weighted", mmBody(t, g))
	}
	var repeat cachedReply
	solves := countServiceSolves(func() {
		repeat = postCached(t, ts.URL+"/v1/order?algorithm=spectral", body)
	})
	if repeat.Cached != (solves == 0) {
		t.Errorf("repeat after the WEIGHTED burst replied cached=%v and ran %d eigensolve(s)", repeat.Cached, solves)
	}
	if len(repeat.Perm) != len(first.Perm) {
		t.Fatalf("repeat permutation length %d, want %d", len(repeat.Perm), len(first.Perm))
	}
	for i := range first.Perm {
		if repeat.Perm[i] != first.Perm[i] {
			t.Fatalf("repeat permutation differs at %d", i)
		}
	}
}

// TestStoreReadsPerRequest pins the store traffic of a request on a graph
// the daemon has not seen: SPECTRAL reads the store once, cold and warm;
// RCM never reads it and replies cached=false even when the store holds
// the graph's solve; /v1/fiedler on a stored graph reads it once and
// replies cached=true. Two daemon lifetimes share one fs:// directory.
func TestStoreReadsPerRequest(t *testing.T) {
	dir := t.TempDir()
	spectralG, rcmG, fiedlerG := envred.Grid(14, 11), envred.Grid(10, 9), envred.Grid(16, 6)

	lifetime := func(name string, f func(url string, st *readCountingStore)) {
		backend, err := envred.OpenStore("fs://" + dir)
		if err != nil {
			t.Fatal(err)
		}
		defer backend.Close()
		st := &readCountingStore{Store: backend}
		svc := service.New(service.Config{Seed: 3, Store: st})
		ts := httptest.NewServer(svc.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := svc.Shutdown(ctx); err != nil {
				t.Errorf("%s shutdown: %v", name, err)
			}
		}()
		f(ts.URL, st)
	}
	// post sends one request and returns its reply and the store reads it
	// cost.
	post := func(st *readCountingStore, url string, g *envred.Graph) (cachedReply, int64) {
		before := st.gets.Load()
		rep := postCached(t, url, mmBody(t, g))
		return rep, st.gets.Load() - before
	}

	lifetime("cold", func(url string, st *readCountingStore) {
		rep, reads := post(st, url+"/v1/order?algorithm=spectral", spectralG)
		if reads != 1 || rep.Cached {
			t.Errorf("cold SPECTRAL: %d store read(s), cached=%v; want 1, false", reads, rep.Cached)
		}
		rep, reads = post(st, url+"/v1/order?algorithm=rcm", rcmG)
		if reads != 0 || rep.Cached {
			t.Errorf("cold RCM: %d store read(s), cached=%v; want 0, false", reads, rep.Cached)
		}
		// Store the solves the second lifetime reads.
		post(st, url+"/v1/order?algorithm=spectral", rcmG)
		post(st, url+"/v1/order?algorithm=spectral", fiedlerG)
	})
	lifetime("warm", func(url string, st *readCountingStore) {
		rep, reads := post(st, url+"/v1/order?algorithm=spectral", spectralG)
		if reads != 1 || !rep.Cached || rep.Solve == nil || !rep.Solve.FromStore {
			t.Errorf("warm SPECTRAL: %d store read(s), cached=%v, solve=%+v; want 1, true, from_store",
				reads, rep.Cached, rep.Solve)
		}
		rep, reads = post(st, url+"/v1/order?algorithm=rcm", rcmG)
		if reads != 0 || rep.Cached {
			t.Errorf("RCM on a stored graph: %d store read(s), cached=%v; want 0, false", reads, rep.Cached)
		}
		rep, reads = post(st, url+"/v1/fiedler", fiedlerG)
		if reads != 1 || !rep.Cached || len(rep.Vector) != fiedlerG.N() {
			t.Errorf("warm /v1/fiedler: %d store read(s), cached=%v, %d-vector; want 1, true, %d",
				reads, rep.Cached, len(rep.Vector), fiedlerG.N())
		}
	})
}
