package perm

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"testing"
)

// permJSONSeeds are documents on which a hand-rolled scanner could part
// ways with encoding/json: white space, null in both places, -0, fractions,
// exponents, the int32 limits, leading zeros, other value types and
// trailing garbage.
var permJSONSeeds = []string{
	`null`, ` null `, `[]`, `[ ]`, "\t[ 1 ,\n2\r]\n", `[0,1,2]`, `[-0]`, `[-0.0]`,
	`[1.0]`, `[1e2]`, `[1E+2]`, `[1e-2]`, `[2147483647]`, `[2147483648]`,
	`[-2147483648]`, `[-2147483649]`, `[99999999999999999999]`, `[null,1]`,
	`[1,null]`, `["1"]`, `[true]`, `[false]`, `[[1]]`, `[{}]`, `{}`, `1`, `"x"`,
	`true`, `[01]`, `[-01]`, `[-]`, `[1,]`, `[,1]`, `[1 2]`, `nul`, `nullx`,
	`[1]x`, `[1]]`, ``, ` `, `[`, `[1`, `[nul]`, `[1.]`, `[1e]`, `[.5]`, `[+1]`,
}

// assertSameDecode fails t unless data decodes into a Perm as it decodes
// into a []int32: both accept it with equal values, or both refuse it,
// and where []int32 refuses a value of the wrong type, Perm refuses the
// same value with a *json.UnmarshalTypeError too.
func assertSameDecode(t *testing.T, data []byte) {
	t.Helper()
	var want []int32
	werr := json.Unmarshal(data, &want)
	var got Perm
	gerr := json.Unmarshal(data, &got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%q: []int32 err = %v, Perm err = %v", data, werr, gerr)
	}
	if werr == nil && ((want == nil) != (got == nil) || !slices.Equal(want, []int32(got))) {
		t.Fatalf("%q: []int32 = %#v, Perm = %#v", data, want, got)
	}
	var wte, gte *json.UnmarshalTypeError
	if errors.As(werr, &wte) && (!errors.As(gerr, &gte) || gte.Value != wte.Value || gte.Type.Kind() != wte.Type.Kind()) {
		t.Fatalf("%q: []int32 err = %#v, Perm err = %#v", data, werr, gerr)
	}
	// Called directly, outside encoding/json's own validation, the
	// decoder must not panic on any input.
	var direct Perm
	_ = direct.UnmarshalJSON(data)
}

func TestPermJSONMatchesInt32Slice(t *testing.T) {
	for _, seed := range permJSONSeeds {
		assertSameDecode(t, []byte(seed))
	}
	for _, n := range []int{1, 9, 10, 11, 1000, 4096} {
		b, err := json.Marshal(Random(n, int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		assertSameDecode(t, b)
	}
}

// Inside a struct, through a Decoder and with omitempty, a Perm field
// reads what a []int32 field wrote.
func TestPermJSONInStruct(t *testing.T) {
	type withPerm struct {
		P Perm `json:"perm"`
		Q Perm `json:"q,omitempty"`
	}
	type withInts struct {
		P []int32 `json:"perm"`
		Q []int32 `json:"q,omitempty"`
	}
	for _, v := range []withPerm{{}, {P: Perm{}}, {P: Random(50, 3), Q: Perm{}}, {Q: Identity(3)}} {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(withInts{v.P, v.Q}); err != nil {
			t.Fatal(err)
		}
		var back withPerm
		if err := json.NewDecoder(&buf).Decode(&back); err != nil {
			t.Fatal(err)
		}
		if !back.P.Equal(v.P) || !back.Q.Equal(v.Q) {
			t.Fatalf("decoded %+v, sent %+v", back, v)
		}
	}
}

// A wrong-typed element of a Perm field is the *json.UnmarshalTypeError
// encoding/json gives for a []int32 field, naming the value, the element
// type and the field; the fields after it stay undecoded, where
// encoding/json records the error and decodes them.
func TestPermJSONTypeErrorInStruct(t *testing.T) {
	doc := []byte(`{"perm":[0,1.5,2],"n":7}`)
	var got struct {
		P Perm `json:"perm"`
		N int  `json:"n"`
	}
	var want struct {
		P []int32 `json:"perm"`
		N int     `json:"n"`
	}
	gerr, werr := json.Unmarshal(doc, &got), json.Unmarshal(doc, &want)
	var gte, wte *json.UnmarshalTypeError
	if !errors.As(gerr, &gte) || !errors.As(werr, &wte) {
		t.Fatalf("Perm err = %v, []int32 err = %v; want *json.UnmarshalTypeError from both", gerr, werr)
	}
	if gte.Value != wte.Value || gte.Type != wte.Type || gte.Field != wte.Field {
		t.Fatalf("Perm err = %+v, []int32 err = %+v", gte, wte)
	}
	if got.N != 0 || want.N != 7 {
		t.Fatalf("field after the bad element: Perm struct %d, []int32 struct %d; want 0 and 7", got.N, want.N)
	}
}

// Like encoding/json, decoding reuses the Perm's storage, and a null
// element leaves what that storage held.
func TestPermJSONReusesStorage(t *testing.T) {
	p := Perm{7, 8, 9}
	q := []int32{7, 8, 9}
	doc := []byte(`[1,null]`)
	if err := json.Unmarshal(doc, &p); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc, &q); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal([]int32(p), q) {
		t.Fatalf("Perm = %v, []int32 = %v", p, q)
	}
}

// FuzzPermJSON holds Perm's decoder to encoding/json's []int32: the same
// documents accepted with the same values, and the same values of the
// wrong type refused with the same error type.
func FuzzPermJSON(f *testing.F) {
	for _, seed := range permJSONSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(assertSameDecode)
}

func BenchmarkPermJSON(b *testing.B) {
	raw, _ := json.Marshal(Random(1500, 1))
	doc := append(append([]byte(`{"P":`), raw...), '}')
	b.Run("unmarshal/perm", func(b *testing.B) {
		for b.Loop() {
			var v struct{ P Perm }
			json.Unmarshal(doc, &v)
		}
	})
	b.Run("unmarshal/int32s", func(b *testing.B) {
		for b.Loop() {
			var v struct{ P []int32 }
			json.Unmarshal(doc, &v)
		}
	})
}
