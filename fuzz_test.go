package envred_test

import (
	"context"
	"testing"

	envred "repro"
)

// fuzzGraph decodes fuzz input into a graph of at most 48 vertices and an
// ordering seed: data[0] gives the vertex count, data[1] the seed (1 to
// 8), and every later byte pair an edge (self loops dropped). Small vertex
// counts make isolated vertices, single edges and several components
// common.
func fuzzGraph(data []byte) (*envred.Graph, int64) {
	if len(data) < 2 {
		return envred.FromEdges(0, nil), 1
	}
	n := int(data[0]) % 49
	seed := 1 + int64(data[1]%8)
	b := envred.NewBuilder(n)
	if n > 0 {
		for i := 2; i+1 < len(data); i += 2 {
			if u, v := int(data[i])%n, int(data[i+1])%n; u != v {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build(), seed
}

// fuzzBytes is fuzzGraph's inverse for the seed corpus.
func fuzzBytes(g *envred.Graph, seed int64) []byte {
	data := []byte{byte(g.N()), byte(seed - 1)}
	for _, e := range g.Edges() {
		data = append(data, byte(e[0]), byte(e[1]))
	}
	return data
}

// fuzzWeight is a symmetric edge weight in [1, 10], hashed from the
// endpoints.
func fuzzWeight(u, v int) float64 {
	if u > v {
		u, v = v, u
	}
	return 1 + float64((u*31+v*17)%10)
}

// FuzzOrderers holds every built-in orderer, on any graph, to the frozen
// whole-graph oracle: a caching Session, the same Session called a second
// time, a cache-less Session and the oracle return byte-identical valid
// permutations, and nothing panics.
func FuzzOrderers(f *testing.F) {
	small := []*envred.Graph{
		envred.Grid(4, 3), envred.Path(10), envred.Cycle(7),
		envred.FromEdges(2, [][2]int{{0, 1}}), envred.FromEdges(1, nil),
	}
	b := envred.NewBuilder(32)
	off := 0
	for _, p := range small {
		for _, e := range p.Edges() {
			b.AddEdge(off+e[0], off+e[1])
		}
		off += p.N()
	}
	star := envred.NewBuilder(12)
	for v := 1; v < 8; v++ {
		star.AddEdge(0, v)
	}
	for i, g := range []*envred.Graph{
		b.Build(), // mixedGraph's five component shapes, in miniature
		envred.FromEdges(0, nil),
		envred.FromEdges(2, [][2]int{{0, 1}}),
		envred.FromEdges(9, nil),
		star.Build(), // a star plus isolated vertices
	} {
		f.Add(fuzzBytes(g, int64(1+i)))
	}
	algs := []string{
		envred.AlgRCM, envred.AlgCM, envred.AlgGPS, envred.AlgGK, envred.AlgKing, envred.AlgSloan,
		envred.AlgSpectral, envred.AlgSpectralSloan, envred.AlgWeighted,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, seed := fuzzGraph(data)
		ctx := context.Background()
		cached := envred.NewSession(envred.SessionOptions{Seed: seed})
		bare := envred.NewSession(envred.SessionOptions{Seed: seed, CacheGraphs: -1})
		for _, alg := range algs {
			want, _, err := oracleOrder(ctx, g, alg, seed, fuzzWeight)
			if err != nil {
				t.Fatalf("%s oracle: %v", alg, err)
			}
			for _, run := range []struct {
				name string
				sess *envred.Session
			}{{"cached", cached}, {"cached again", cached}, {"cache-less", bare}} {
				res, err := run.sess.OrderWeighted(ctx, g, alg, fuzzWeight)
				if err != nil {
					t.Fatalf("%s %s on a %d-vertex graph: %v", run.name, alg, g.N(), err)
				}
				if !res.Perm.Equal(want) {
					t.Fatalf("%s %s on a %d-vertex graph: %v, oracle %v", run.name, alg, g.N(), res.Perm, want)
				}
			}
		}
	})
}
