package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	envred "repro"
)

// Decoding a text the tenant Session already holds returns the resident
// graph itself, without parsing, and admission keeps it resident by
// pointer; after Reset the text is parsed again.
func TestTextDigestHitReturnsResidentGraph(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	tnt := s.open
	var buf bytes.Buffer
	if err := envred.WriteMatrixMarket(&buf, envred.Grid(9, 8)); err != nil {
		t.Fatal(err)
	}
	orderOnce := func() item {
		t.Helper()
		r := httptest.NewRequest(http.MethodPost, "/v1/order?algorithm=rcm", bytes.NewReader(buf.Bytes()))
		req, aerr := s.decodeRequest(httptest.NewRecorder(), r, tnt.sess, false)
		if aerr != nil {
			t.Fatal(aerr)
		}
		if aerr := s.admit(context.Background(), tnt, req); aerr != nil {
			t.Fatal(aerr)
		}
		s.leave(tnt)
		return req.items[0]
	}
	first := orderOnce()
	if first.textHit || first.resident {
		t.Fatal("a first text was found in the cache")
	}
	second := orderOnce()
	if !second.textHit || second.g != first.g || !second.resident {
		t.Fatalf("repost: text hit %v, same graph %v, resident %v; want all true", second.textHit, second.g == first.g, second.resident)
	}
	if got := s.m.textHits.value(); got != 1 {
		t.Fatalf("%d digest hits counted, want 1", got)
	}
	tnt.sess.Reset()
	third := orderOnce()
	if third.textHit || third.resident || third.g == first.g {
		t.Fatal("a digest outlived Reset")
	}
}

// A text is hashed where it lies: textDigest allocates the digest and no
// copy of the text, agrees with sha256.Sum256 on strings and bytes, and
// leaves WEIGHTED texts unhashed.
func TestTextDigestDoesNotCopyText(t *testing.T) {
	text := strings.Repeat("12 34\n", 20000)
	want := sha256.Sum256([]byte(text))
	if *textDigest(text, false) != want || *textDigest([]byte(text), false) != want {
		t.Fatal("textDigest disagrees with sha256.Sum256")
	}
	if textDigest(text, true) != nil {
		t.Fatal("a WEIGHTED text was hashed")
	}
	if n := testing.AllocsPerRun(10, func() { textDigest(text, false) }); n > 1 {
		t.Fatalf("textDigest allocated %v times per call, want only the digest", n)
	}
}
