// Quickstart: build a small sparse matrix pattern, reorder it through a
// reusable ordering Session, and compare the envelope against the
// classical orderings — the five-minute tour of the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	envred "repro"
)

func main() {
	// A 30×12 five-point grid: the matrix pattern of a small 2-D PDE
	// discretization (n = 360).
	g := envred.Grid(30, 12)
	fmt.Printf("matrix: n = %d, lower-triangle nonzeros = %d\n\n", g.N(), g.Nonzeros())

	// A Session is the one way into the spectral orderings: it owns the
	// scratch pools and a per-graph artifact cache, so repeated calls on
	// the same graph (like the loop below) reuse decomposition and
	// eigensolve work. SessionOptions{CacheGraphs: -1} makes it stateless.
	ctx := context.Background()
	sess := envred.NewSession(envred.SessionOptions{Seed: 1})

	// The paper's Algorithm 1: Laplacian → Fiedler vector → sort.
	spectral, err := sess.Order(ctx, g, envred.AlgSpectral)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fiedler value λ2 = %.6f (eigensolver residual %.1e, %s in %v)\n\n",
		spectral.Info.Lambda2, spectral.Info.Residual, spectral.Solve.Scheme, spectral.Elapsed.Round(time.Microsecond))

	fmt.Printf("%-10s %10s %10s %10s\n", "ordering", "envelope", "work Σr²", "bandwidth")
	show := func(name string, s envred.EnvelopeStats) {
		fmt.Printf("%-10s %10d %10d %10d\n", name, s.Esize, s.Ework, s.Bandwidth)
	}
	show("original", envred.Stats(g, envred.Identity(g.N())))
	show("random", envred.Stats(g, envred.RandomPerm(g.N(), 7)))
	// Every registered algorithm is callable by name — user-registered
	// Orderers included (see examples/customorderer).
	for _, alg := range []string{envred.AlgRCM, envred.AlgGPS, envred.AlgGK, envred.AlgSloan} {
		res, err := sess.Order(ctx, g, alg)
		if err != nil {
			log.Fatal(err)
		}
		show(alg, res.Stats)
	}
	show("SPECTRAL", spectral.Stats)

	// The reordered pattern, as ASCII art: a thin band hugging the diagonal.
	fmt.Println("\nspectral-ordered structure:")
	fmt.Print(envred.SpyASCII(g, spectral.Perm, 36))
}
