package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"testing"

	envred "repro"
	"repro/internal/service"
)

// TestReplyCarriesTheSessionSolveRecord pins that a reply's solve record is
// the answer's one record: for SPECTRAL on the disconnected CI matrix (four
// components) and for AUTO, the reply's solve equals the Result.Solve a
// fresh Session returns for the same matrix and seed, and lambda2 is its
// lambda.
func TestReplyCarriesTheSessionSolveRecord(t *testing.T) {
	body, err := os.ReadFile("../../testdata/ci_disconnected.mtx")
	if err != nil {
		t.Fatal(err)
	}
	g, err := envred.ReadMatrixMarket(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, service.Config{Seed: 3})
	ctx := context.Background()
	for _, alg := range []string{"spectral", "auto"} {
		sess := envred.NewSession(envred.SessionOptions{Seed: 3})
		var want envred.Result
		if alg == "auto" {
			want, err = sess.AutoWith(ctx, g, envred.AutoOptions{Seed: 3})
		} else {
			want, err = sess.Order(ctx, g, alg)
		}
		if err != nil {
			t.Fatal(err)
		}
		if want.Solve == nil {
			t.Fatalf("%s: the Session ran no solve on a matrix with grid components", alg)
		}
		resp, raw := postMM(t, ts.URL+"/v1/order?seed=3&algorithm="+alg, body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", alg, resp.StatusCode, raw)
		}
		var rep struct {
			Lambda2 float64            `json:"lambda2"`
			Solve   *envred.SolveStats `json:"solve"`
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if rep.Solve == nil || *rep.Solve != *want.Solve {
			t.Fatalf("%s: reply solve %+v, want the Session's %+v", alg, rep.Solve, *want.Solve)
		}
		if rep.Lambda2 != rep.Solve.Lambda {
			t.Fatalf("%s: lambda2 %v, want solve.lambda %v", alg, rep.Lambda2, rep.Solve.Lambda)
		}
	}
}
