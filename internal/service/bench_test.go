package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	envred "repro"
	"repro/client"
	"repro/internal/service"
)

// BenchmarkServeWarm measures one warm POST /v1/order through the daemon's
// handler, from request body to the client's decoded OrderResult: the
// service_warm workload's six graphs (its paper problems at scale 0.5,
// generator seed 1993) as raw Matrix Market bodies, every graph resident
// and every answer already computed once, one sub-benchmark per
// algorithm. No eigensolve runs: decode, intern, order, score and the
// JSON codec are what it times.
func BenchmarkServeWarm(b *testing.B) {
	srv := service.New(service.Config{Seed: 1})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	var bodies [][]byte
	for _, name := range []string{"BCSSTK13", "CAN1072", "POW9", "BLKHOLE", "DWT2680", "SSTMODEL"} {
		spec, ok := envred.ProblemByName(name)
		if !ok {
			b.Fatalf("no problem %s", name)
		}
		var buf bytes.Buffer
		if err := envred.WriteMatrixMarket(&buf, spec.Generate(0.5, 1993).G); err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
	}
	for _, alg := range []string{envred.AlgSpectral, envred.AlgSpectralSloan, envred.AlgRCM, envred.AlgSloan} {
		target := "/v1/order?algorithm=" + url.QueryEscape(alg)
		serve := func(body []byte) *client.OrderResult {
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
			r.Header.Set("Content-Type", "application/x-matrix-market")
			h.ServeHTTP(w, r)
			var res client.OrderResult
			if w.Code != http.StatusOK {
				b.Fatalf("%s: status %d: %s", alg, w.Code, w.Body.Bytes())
			}
			if err := json.NewDecoder(w.Body).Decode(&res); err != nil {
				b.Fatal(err)
			}
			return &res
		}
		b.Run(strings.ReplaceAll(alg, "+", "_"), func(b *testing.B) {
			for _, body := range bodies {
				serve(body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := serve(bodies[i%len(bodies)]); !res.Cached {
					b.Fatalf("%s: a warm request was not served from the cache", alg)
				}
			}
		})
	}
}
