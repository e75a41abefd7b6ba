package store

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/solver"
)

// FuzzArtifactRoundTrip drives the codec from fuzzed artifact fields:
// encode must succeed and decode must reproduce the artifact and key
// byte-identically (encode∘decode∘encode is the identity on bytes).
func FuzzArtifactRoundTrip(f *testing.F) {
	f.Add(uint16(4), true, true, "multilevel-rqi", 0.12, 1e-9, int64(42), true, int64(17), true)
	f.Add(uint16(0), false, false, "", 0.0, 0.0, int64(0), false, int64(0), false)
	f.Add(uint16(1000), true, false, "lanczos", math.Inf(1), math.NaN(), int64(-1), true, int64(-5), false)
	f.Fuzz(func(t *testing.T, n uint16, hasF, hasS bool, scheme string,
		lambda, residual float64, counters int64, converged bool, esize int64, reversed bool) {
		a := &Artifact{
			N:          int(n),
			HasFiedler: hasF,
			Stats: solver.Stats{
				Scheme:        scheme,
				Lambda:        lambda,
				Residual:      residual,
				MatVecs:       int(counters),
				RQIIterations: int(counters % 7),
				JacobiSweeps:  int(counters % 11),
				Levels:        int(counters % 5),
				CoarsestN:     int(counters % 97),
				Workers:       int(counters % 17),
				Converged:     converged,
			},
			HasSpectral: hasS,
			Esize:       esize,
			Reversed:    reversed,
		}
		if hasF {
			a.Fiedler = make([]float64, n)
			for i := range a.Fiedler {
				a.Fiedler[i] = lambda + float64(i)
			}
		}
		if hasS {
			a.Perm = make([]int32, n)
			for i := range a.Perm {
				a.Perm[i] = int32(i)
			}
		}
		key := testKey(byte(n))
		data := EncodeArtifact(key, a)
		gotKey, got, err := DecodeArtifact(data)
		if err != nil {
			t.Fatalf("decode of freshly encoded artifact failed: %v", err)
		}
		if gotKey != key {
			t.Fatal("key changed across round trip")
		}
		data2 := EncodeArtifact(gotKey, got)
		if !reflect.DeepEqual(data, data2) {
			t.Fatal("re-encode of decoded artifact is not byte-identical")
		}
	})
}

// FuzzDecodeArtifact feeds arbitrary bytes to the decoder: it must never
// panic or allocate unboundedly, and must either decode cleanly or fail
// with an error wrapping ErrCorrupt.
func FuzzDecodeArtifact(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("EVST"))
	f.Add(EncodeArtifact(testKey(1), testArtifact()))
	valid := EncodeArtifact(testKey(2), testArtifact())
	f.Add(valid[:len(valid)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, err := DecodeArtifact(data)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
		}
	})
}
