package store

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/solver"
)

func testKey(seed byte) Key {
	var k Key
	for i := range k.Graph {
		k.Graph[i] = seed + byte(i)
	}
	for i := range k.Opts {
		k.Opts[i] = seed ^ byte(i*7)
	}
	return k
}

func testArtifact() *Artifact {
	return &Artifact{
		N:          4,
		HasFiedler: true,
		Fiedler:    []float64{-0.5, -0.1, 0.2, 0.4},
		Stats: solver.Stats{
			Scheme:        "multilevel-rqi",
			Lambda:        0.123456789,
			Residual:      1e-9,
			MatVecs:       42,
			RQIIterations: 3,
			JacobiSweeps:  7,
			Levels:        2,
			CoarsestN:     10,
			Workers:       4,
			Converged:     true,
		},
		HasSpectral: true,
		Perm:        []int32{2, 0, 3, 1},
		Esize:       17,
		Reversed:    true,
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	key := testKey(3)
	want := testArtifact()
	data := EncodeArtifact(key, want)
	gotKey, got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatalf("DecodeArtifact: %v", err)
	}
	if gotKey != key {
		t.Errorf("key round-trip mismatch: got %s want %s", gotKey, key)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("artifact round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Encoding must be deterministic: same input, same bytes.
	if data2 := EncodeArtifact(key, want); !reflect.DeepEqual(data, data2) {
		t.Error("EncodeArtifact is not deterministic")
	}
}

func TestArtifactRoundTripPartial(t *testing.T) {
	cases := map[string]*Artifact{
		"fiedler only": {
			N: 3, HasFiedler: true,
			Fiedler: []float64{0.1, 0.2, 0.3},
			Stats:   solver.Stats{Scheme: "lanczos", Converged: true},
		},
		"neither stage": {N: 5},
		"empty graph":   {N: 0, HasFiedler: true, HasSpectral: true, Fiedler: []float64{}, Perm: []int32{}},
	}
	for name, want := range cases {
		data := EncodeArtifact(testKey(9), want)
		_, got, err := DecodeArtifact(data)
		if err != nil {
			t.Errorf("%s: DecodeArtifact: %v", name, err)
			continue
		}
		// Decoder materializes empty slices as non-nil; normalize for the
		// comparison since callers only index them.
		if want.Fiedler == nil && len(got.Fiedler) == 0 {
			got.Fiedler = nil
		}
		if want.Perm == nil && len(got.Perm) == 0 {
			got.Perm = nil
		}
		if len(want.Fiedler) == 0 {
			want.Fiedler, got.Fiedler = nil, nil
		}
		if len(want.Perm) == 0 {
			want.Perm, got.Perm = nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round-trip mismatch:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestDecodeArtifactCorruption is the satellite-required corruption matrix:
// every malformed variant must fail with ErrCorrupt and never panic.
func TestDecodeArtifactCorruption(t *testing.T) {
	valid := EncodeArtifact(testKey(1), testArtifact())

	mutate := func(f func(b []byte) []byte) []byte {
		cp := append([]byte(nil), valid...)
		return f(cp)
	}
	cases := map[string][]byte{
		"empty":          {},
		"magic only":     valid[:4],
		"truncated head": valid[:5],
		"truncated body": valid[:len(valid)/2],
		"one byte short": valid[:len(valid)-1],
		"trailing garbage": append(append([]byte(nil), valid...),
			0xde, 0xad),
		"bad magic": mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"flipped version byte": mutate(func(b []byte) []byte {
			b[4] ^= 0xff
			return b
		}),
		"future version": mutate(func(b []byte) []byte {
			b[4] = formatVersion + 1
			return b
		}),
		"wrong kind": mutate(func(b []byte) []byte {
			b[5] = kindGraph
			return b
		}),
		"unknown flags": mutate(func(b []byte) []byte {
			// flags byte sits after header(6) + key(64) + n(8)
			b[6+64+8] |= 0x80
			return b
		}),
		"huge length prefix": mutate(func(b []byte) []byte {
			// scheme string length field immediately follows flags
			off := 6 + 64 + 8 + 1
			for i := 0; i < 4; i++ {
				b[off+i] = 0xff
			}
			return b
		}),
	}
	for name, data := range cases {
		_, _, err := DecodeArtifact(data)
		if err == nil {
			t.Errorf("%s: DecodeArtifact accepted malformed input", name)
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
	}
}

func TestKeyStringStable(t *testing.T) {
	k := testKey(5)
	s := k.String()
	if len(s) != 64+1+64 {
		t.Fatalf("Key.String() = %q, want 64+1+64 chars", s)
	}
	if s != k.String() {
		t.Error("Key.String() not deterministic")
	}
}
