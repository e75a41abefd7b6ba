package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/solver"
)

// Binary serialization: everything little-endian, every variable-length
// section length-prefixed, one format-version byte after a fixed magic so
// incompatible readers fail typed instead of misreading.
//
//	[0:4)  magic "EVST"
//	[4]    format version (formatVersion)
//	[5]    kind byte (kindArtifact; kindGraph is reserved and rejected)
//	[6:]   kind-specific payload, no trailing bytes allowed
//
// Artifact payload:
//
//	key        64 bytes (graph fingerprint ‖ option digest) — lets a
//	           backend verify an entry landed under the name it claims
//	n          u64
//	flags      u8 (bit0 = fiedler present, bit1 = spectral present)
//	stats      scheme string (u32 len + bytes), lambda f64, residual f64,
//	           matvecs u64, rqi u64, jacobi u64, levels u64, coarsest u64,
//	           workers u64, converged u8
//	fiedler    u64 count + count f64          (iff bit0; count == n)
//	perm       u64 count + count i32,          (iff bit1; count == n)
//	           esize u64 (two's complement), reversed u8
const formatVersion = 1

const (
	kindArtifact = 1
	// kindGraph once tagged a serialized CSR graph. No writer remains; the
	// value stays reserved so a decoder meeting it fails typed.
	kindGraph = 2
)

var magic = [4]byte{'E', 'V', 'S', 'T'}

const (
	flagFiedler  = 1 << 0
	flagSpectral = 1 << 1
)

// corrupt builds the typed decode error every malformed input funnels to.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// encoder appends primitives to a byte slice.
type encoder struct{ b []byte }

func (e *encoder) u8(v byte)     { e.b = append(e.b, v) }
func (e *encoder) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *encoder) f64s(v []float64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}
func (e *encoder) i32s(v []int32) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.u32(uint32(x))
	}
}

// decoder consumes primitives from a byte slice, bounds-checked; the first
// overrun poisons it and every later read reports failure.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corrupt(format, args...)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("truncated at offset %d (want %d more bytes, have %d)", d.off, n, len(d.b)-d.off)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) str() string {
	n := d.u32()
	// The length itself is bounds-checked by take, so a hostile huge count
	// fails before allocating.
	return string(d.take(int(n)))
}

// count reads a u64 length prefix for elements of elemSize bytes and
// rejects counts the remaining input cannot possibly hold, so fuzzed
// inputs cannot trigger giant allocations.
func (d *decoder) count(elemSize int) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)-d.off)/uint64(elemSize) {
		d.fail("length prefix %d exceeds remaining input at offset %d", n, d.off)
		return 0
	}
	return int(n)
}

func (d *decoder) f64s() []float64 {
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *decoder) i32s() []int32 {
	n := d.count(4)
	if d.err != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.u32())
	}
	return out
}

// finish rejects trailing garbage: an entry must decode to exactly its
// length or it is not the entry that was written.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return corrupt("%d trailing bytes after offset %d", len(d.b)-d.off, d.off)
	}
	return nil
}

func encodeHeader(e *encoder, kind byte) {
	e.b = append(e.b, magic[:]...)
	e.u8(formatVersion)
	e.u8(kind)
}

func decodeHeader(d *decoder, wantKind byte) {
	got := d.take(4)
	if d.err != nil {
		return
	}
	if [4]byte(got) != magic {
		d.fail("bad magic %q", got)
		return
	}
	if v := d.u8(); d.err == nil && v != formatVersion {
		d.fail("unsupported format version %d (want %d)", v, formatVersion)
		return
	}
	if k := d.u8(); d.err == nil && k != wantKind {
		d.fail("wrong entry kind %d (want %d)", k, wantKind)
	}
}

// EncodeArtifact serializes a under key. The key is embedded so backends
// can verify an entry still matches the name it is stored under.
func EncodeArtifact(key Key, a *Artifact) []byte {
	e := &encoder{b: make([]byte, 0, artifactSizeHint(a))}
	encodeHeader(e, kindArtifact)
	e.b = append(e.b, key.Graph[:]...)
	e.b = append(e.b, key.Opts[:]...)
	e.u64(uint64(a.N))
	var flags byte
	if a.HasFiedler {
		flags |= flagFiedler
	}
	if a.HasSpectral {
		flags |= flagSpectral
	}
	e.u8(flags)
	e.str(a.Stats.Scheme)
	e.f64(a.Stats.Lambda)
	e.f64(a.Stats.Residual)
	e.u64(uint64(a.Stats.MatVecs))
	e.u64(uint64(a.Stats.RQIIterations))
	e.u64(uint64(a.Stats.JacobiSweeps))
	e.u64(uint64(a.Stats.Levels))
	e.u64(uint64(a.Stats.CoarsestN))
	e.u64(uint64(a.Stats.Workers))
	e.bool(a.Stats.Converged)
	if a.HasFiedler {
		e.f64s(a.Fiedler)
	}
	if a.HasSpectral {
		e.i32s(a.Perm)
		e.u64(uint64(a.Esize))
		e.bool(a.Reversed)
	}
	return e.b
}

func artifactSizeHint(a *Artifact) int {
	return 6 + 64 + 9 + 96 + len(a.Stats.Scheme) + 8*len(a.Fiedler) + 4*len(a.Perm) + 32
}

// DecodeArtifact parses an encoded artifact, returning the embedded key and
// the record. Any malformation — truncation, bad magic, version or kind
// mismatch, impossible lengths, trailing garbage, or sections inconsistent
// with N — fails with an error wrapping ErrCorrupt.
//
//envlint:readonly data
func DecodeArtifact(data []byte) (Key, *Artifact, error) {
	d := &decoder{b: data}
	decodeHeader(d, kindArtifact)
	var key Key
	copy(key.Graph[:], d.take(len(key.Graph)))
	copy(key.Opts[:], d.take(len(key.Opts)))
	a := &Artifact{}
	n := d.u64()
	if d.err == nil && n > uint64(math.MaxInt32) {
		d.fail("vertex count %d out of range", n)
	}
	a.N = int(n)
	flags := d.u8()
	if d.err == nil && flags&^(flagFiedler|flagSpectral) != 0 {
		d.fail("unknown flag bits %#x", flags)
	}
	a.HasFiedler = flags&flagFiedler != 0
	a.HasSpectral = flags&flagSpectral != 0
	a.Stats = solver.Stats{
		Scheme:        d.str(),
		Lambda:        d.f64(),
		Residual:      d.f64(),
		MatVecs:       int(d.u64()),
		RQIIterations: int(d.u64()),
		JacobiSweeps:  int(d.u64()),
		Levels:        int(d.u64()),
		CoarsestN:     int(d.u64()),
		Workers:       int(d.u64()),
		Converged:     d.bool(),
	}
	if a.HasFiedler {
		a.Fiedler = d.f64s()
		if d.err == nil && len(a.Fiedler) != a.N {
			d.fail("fiedler vector has %d entries for n=%d", len(a.Fiedler), a.N)
		}
	}
	if a.HasSpectral {
		a.Perm = d.i32s()
		if d.err == nil && len(a.Perm) != a.N {
			d.fail("permutation has %d entries for n=%d", len(a.Perm), a.N)
		}
		a.Esize = int64(d.u64())
		a.Reversed = d.bool()
	}
	if err := d.finish(); err != nil {
		return Key{}, nil, err
	}
	return key, a, nil
}
