package main

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/envelope"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/order"
)

// Every input is a pure function of the benchmark seed. Each generator
// draws from its own stream, derived from the seed and the stream's name,
// so adding draws to one stream never shifts another.
//
// esize_vs_rcm is gated at 0.5%, and its median over runs with different
// seeds must hold still to well within that. The envelope ratio of one
// generated graph moves by more than 0.5% from one draw to the next, so the
// seed may move only what averages out: the load (arrival times, request
// mixes, popularity), the ordering seed every request carries, and the
// detail of graphs drawn in numbers (see graphStream). The paper's
// problems are fixed instances (see paperGenSeed).

func streamSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(stream))
	return int64(h.Sum64() >> 1)
}

func rng(seed int64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(streamSeed(seed, stream)))
}

// poissonSchedule returns the send offsets of an open-loop generator with
// exponential inter-arrival times at rate per second, covering d.
func poissonSchedule(seed int64, stream string, rate float64, d time.Duration) []time.Duration {
	r := rng(seed, stream)
	var out []time.Duration
	for t := 0.0; ; {
		t += r.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// zipfSequence returns count draws from Zipf(s) over ranks 0..n-1 (rank 0
// most popular).
func zipfSequence(seed int64, stream string, s float64, n, count int) []int {
	z := rand.NewZipf(rng(seed, stream), s, 1, uint64(n-1))
	out := make([]int, count)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// graphStream returns the k-th graph of a named stream: a triangulated
// mesh, triangulated cylinder or two-DOF shell of about n vertices.
// Distinct (stream, k) give distinct graphs.
//
// The family and dimensions come from shape and n alone, so every seed
// sends graphs of the same sizes; the seed and k draw the diagonals, so no
// two graphs of a stream and no two seeds' graphs are the same. The shapes
// keep the Fiedler value well apart from the next eigenvalue (meshDims; a
// cylinder wraps its short side): on near-square meshes above the
// 2000-vertex multilevel switch the spectral envelope moved by up to 25%
// with the ordering seed alone. Power networks are left out for the same
// reason; with them in, the ordering seed alone moved batch_cold's
// esize_vs_rcm by 2%. So are thin annuli, whose two slowest modes go
// around the ring: below the switch, the Lanczos solve of one took 10 to
// 40 times as long as a mesh of its size, by an amount the seed moved.
func graphStream(seed int64, stream string, k, shape, n int) *graph.Graph {
	dims := rng(int64(shape), stream+".shape")
	gseed := rng(seed+int64(k)*7919, stream).Int63()
	switch shape % 3 {
	case 0:
		nx, ny := meshDims(dims, n)
		return gen.Mesh(nx, ny, gen.StencilTri, false, gseed)
	case 1:
		nx, ny := meshDims(dims, n)
		return gen.Mesh(nx, ny, gen.StencilTri, true, gseed)
	default:
		nx, ny := meshDims(dims, n/2)
		return gen.Shell(nx, ny, 2, gen.StencilTri, dims.Intn(2) == 0, gseed)
	}
}

// meshStream returns the k-th graph of a named stream of triangulated
// meshes with between nmin and nmax vertices: one family, so every graph
// of the stream costs about the same to order. The dimensions come from k
// and the diagonals from the seed.
func meshStream(seed int64, stream string, k, nmin, nmax int) *graph.Graph {
	shape := rng(int64(k), stream+".shape")
	nx, ny := meshDims(shape, nmin+shape.Intn(nmax-nmin+1))
	return gen.Mesh(nx, ny, gen.StencilTri, false, rng(seed+int64(k)*7919, stream).Int63())
}

// meshDims splits n vertices into an nx×ny grid of aspect ratio 2 to 4:
// long enough that the mode along the grid is clearly the slowest.
func meshDims(r *rand.Rand, n int) (nx, ny int) {
	aspect := 2 + 2*r.Float64()
	nx = max(2, int(math.Round(math.Sqrt(float64(n)*aspect))))
	ny = max(2, n/nx)
	return nx, ny
}

// input is one graph a workload sends, with the bytes it travels as and
// the RCM envelope size that esize_vs_rcm divides by, computed in set-up.
type input struct {
	name string
	g    *graph.Graph
	mm   []byte
	rcm  int64
}

func newInput(name string, g *graph.Graph) (*input, error) {
	var buf bytes.Buffer
	if err := mm.WriteGraph(&buf, g); err != nil {
		return nil, err
	}
	return &input{name: name, g: g, mm: buf.Bytes(), rcm: envelope.Esize(g, order.RCM(g))}, nil
}

// quality holds the envelope size returned for each distinct (graph,
// algorithm) pair of a window, for esize_vs_rcm. Each pair counts once:
// the checks hold every answer for a pair to one reference, and weighting
// pairs by how often the load drew them would let the popularity draw move
// the metric.
type quality map[qualityKey]int64

type qualityKey struct {
	in  *input
	alg string
}

func (q quality) add(in *input, alg string, esize int64) {
	if _, seen := q[qualityKey{in, alg}]; !seen {
		q[qualityKey{in, alg}] = esize
	}
}

// vsRCM is Σ Esize returned ÷ Σ Esize of RCM over the pairs.
func (q quality) vsRCM() float64 {
	var esize, rcm int64
	for k, e := range q {
		esize += e
		rcm += k.in.rcm
	}
	return ratio(float64(esize), float64(rcm))
}
