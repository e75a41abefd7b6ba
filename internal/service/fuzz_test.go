package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	envred "repro"
)

// FuzzDecodeRequest feeds arbitrary bodies to the one request decoder, as
// JSON or Matrix Market, on a singleton or the batch endpoint. It must
// never panic, must refuse with 400 or 413 only, and every request it
// accepts must hold no more vertices than its body length plus the
// allowance.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range []string{
		// TestMalformedRequests400.
		"this is not a matrix",
		"",
		"{",
		`{"algorithm":"rcm"}`,
		`{"algorithm":"rcm","graph":{"n":3,"edges":[[0,7]]}}`,
		`{"algorithm":"rcm","graph":{"n":-2}}`,
		`{"algorithm":"nope","graph":{"n":2,"edges":[[0,1]]}}`,
		"x",
		`{"algorithm":"weighted","graph":{"n":3,"edges":[[0,1],[1,2]]}}`,
		// TestOrderBatchValidation.
		`{"items":[{"graph":{"n":1,"edges":[]}}]}`,
		`{"algorithm":"auto","items":[{"graph":{"n":1,"edges":[]}}]}`,
		`{"algorithm":"weighted","items":[{"graph":{"n":1,"edges":[]}}]}`,
		`{"algorithm":"nope","items":[{"graph":{"n":1,"edges":[]}}]}`,
		`{"algorithm":"rcm","items":[]}`,
		`{"algorithm":`,
		// Accepted requests of each shape.
		"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n",
		`{"algorithm":"weighted","graph":{"n":3,"edges":[[0,1],[1,2]],"weights":[2,0.5]}}`,
		`{"algorithm":"rcm","items":[{"graph":{"n":4,"edges":[[0,1]]}},{"matrix_market":"%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n"}]}`,
	} {
		for _, isJSON := range []bool{false, true} {
			f.Add([]byte(body), isJSON, false)
			f.Add([]byte(body), isJSON, true)
		}
	}
	s := &Server{}
	sess := envred.NewSession(envred.SessionOptions{})
	f.Fuzz(func(t *testing.T, body []byte, isJSON, batch bool) {
		path := "/v1/order"
		if batch {
			path += "/batch"
		}
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if isJSON {
			r.Header.Set("Content-Type", "application/json")
		}
		req, aerr := s.decodeRequest(httptest.NewRecorder(), r, sess, batch)
		if aerr != nil {
			if aerr.Status != http.StatusBadRequest && aerr.Status != http.StatusRequestEntityTooLarge {
				t.Fatalf("refused with status %d: %s", aerr.Status, aerr.Message)
			}
			return
		}
		if !batch && (len(req.items) != 1 || req.items[0].g == nil) {
			t.Fatalf("accepted singleton request carries %d items", len(req.items))
		}
		n := 0
		for _, it := range req.items {
			if it.g != nil {
				n += it.g.N()
			}
		}
		if n > len(body)+extraVertices {
			t.Fatalf("accepted %d vertices from a %d-byte body", n, len(body))
		}
	})
}
