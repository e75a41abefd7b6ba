// Example customorderer plugs a user-written ordering algorithm into the
// ordering service: it registers a brute-force exact-envelope Orderer
// under the name "BRUTE", then runs Auto with a portfolio that includes it
// and shows it winning the components small enough for exhaustive search —
// on equal footing with the built-ins, per-component artifact cache and
// all. The same registration makes it callable directly by name through
// Session.Order.
package main

import (
	"context"
	"fmt"
	"log"

	envred "repro"
)

// bruteMax bounds the exhaustive search: 8! = 40320 candidate orderings.
const bruteMax = 8

// brute is the custom Orderer: exact minimum-envelope ordering by
// exhaustive permutation search on tiny graphs. On components larger than
// bruteMax it reports an error, which Auto records on the candidate while
// the rest of the portfolio covers the component — a clean way to ship a
// specialist algorithm that only bids on inputs it can handle.
//
// The Orderer contract in one look: the graph is always one connected
// component of at least two vertices — Auto races the Orderer per
// component, and Session.Order calls it once per component and
// concatenates the orderings. req.Artifacts always offers the shared
// artifact cache for that exact component (Fiedler vector, peripheral
// root, pseudo-diameter), and req.Workspace the calling worker's scratch.
// Implementations must be deterministic and honor ctx.
func brute(ctx context.Context, g *envred.Graph, req *envred.OrderRequest) (envred.Result, error) {
	n := g.N()
	if n > bruteMax {
		return envred.Result{}, fmt.Errorf("brute: n=%d exceeds the exhaustive-search bound %d", n, bruteMax)
	}
	best := make(envred.Perm, n)
	cur := make(envred.Perm, n)
	for i := range cur {
		best[i], cur[i] = int32(i), int32(i)
	}
	bestEsize := envred.Esize(g, best)
	var walk func(k int)
	walk = func(k int) {
		if ctx.Err() != nil {
			return
		}
		if k == n {
			if e := envred.Esize(g, cur); e < bestEsize {
				bestEsize = e
				copy(best, cur)
			}
			return
		}
		for i := k; i < n; i++ {
			cur[k], cur[i] = cur[i], cur[k]
			walk(k + 1)
			cur[k], cur[i] = cur[i], cur[k]
		}
	}
	walk(0)
	if err := ctx.Err(); err != nil {
		return envred.Result{}, err
	}
	return envred.Result{Perm: best}, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("customorderer: ")

	if err := envred.Register("BRUTE", envred.OrdererFunc(brute)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered algorithms: %v\n\n", envred.Algorithms())

	// A graph with several tiny tangled components — a 7-vertex knot whose
	// exact minimum envelope (11) strictly beats every built-in heuristic
	// (12+) — plus one grid that is far beyond the brute-forcer's reach.
	knot := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
		{0, 5}, {1, 3}, {1, 5}, {2, 5}, {3, 5},
	}
	grid := envred.Grid(12, 8)
	b := envred.NewBuilder(grid.N() + 4*7)
	for _, e := range grid.Edges() {
		b.AddEdge(e[0], e[1])
	}
	off := grid.N()
	for c := 0; c < 4; c++ {
		for _, e := range knot {
			b.AddEdge(off+e[0], off+e[1])
		}
		off += 7
	}
	g := b.Build()

	// Race BRUTE against the default contenders. The portfolio's first
	// entry is the budget fallback that must always produce a valid
	// ordering, so a specialist that declines large components belongs
	// after the built-ins, never first.
	sess := envred.NewSession(envred.SessionOptions{
		Seed:      7,
		Portfolio: append(envred.DefaultPortfolio(), "BRUTE"),
	})
	res, err := sess.Auto(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("global envelope %d; wins per algorithm: %v\n\n", res.Stats.Esize, res.Report.Wins)
	for _, cr := range res.Report.Components {
		fmt.Printf("component %d (n=%d): winner %-8s envelope %d\n", cr.Index, cr.Size, cr.Winner, cr.Stats.Esize)
	}
	if res.Report.Wins["BRUTE"] == 0 {
		log.Fatal("BRUTE won no component — expected it to take the knots")
	}

	// The registration also makes it a first-class Session.Order target.
	tiny := envred.Path(6)
	direct, err := sess.Order(context.Background(), tiny, "brute") // names are case-insensitive
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSession.Order(\"brute\") on a 6-path: envelope %d (optimal is %d)\n",
		direct.Stats.Esize, tiny.N()-1)
}
