// Ordering-time versus quality trade-off: the paper stresses that the
// spectral algorithm "is iterative in nature ... It allows a user to
// terminate the reordering process depending on a stopping criterion, thus
// permitting the user to make trade-offs in ordering time versus storage
// efficiency." This example sweeps the Lanczos iteration budget and shows
// envelope quality improving with eigensolver effort.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	envred "repro"
	"repro/internal/lanczos"
)

func main() {
	spec, ok := envred.ProblemByName("BLKHOLE")
	if !ok {
		log.Fatal("problem catalogue missing BLKHOLE")
	}
	p := spec.Generate(1.0, 3)
	g := p.G
	fmt.Printf("%s stand-in: n = %d, nnz = %d\n\n", p.Name, g.N(), g.Nonzeros())

	// A cache-less Session: every budget below pays for its own eigensolve.
	sess := envred.NewSession(envred.SessionOptions{Seed: 3, CacheGraphs: -1})
	fmt.Printf("%-22s %10s %12s %10s\n", "eigensolver budget", "envelope", "λ2 estimate", "time (s)")
	for _, budget := range []struct {
		name     string
		basis    int
		restarts int
	}{
		{"5 Lanczos vectors", 5, 1},
		{"15 Lanczos vectors", 15, 1},
		{"40 Lanczos vectors", 40, 1},
		{"40 vectors, 5 cycles", 40, 5},
		{"converged (default)", 0, 0},
	} {
		opt := envred.SpectralOptions{
			Method: envred.MethodLanczos,
			Lanczos: lanczos.Options{
				MaxBasis:    budget.basis,
				MaxRestarts: budget.restarts,
				Seed:        3,
			},
			Seed: 3,
		}
		t0 := time.Now()
		res, err := sess.Do(context.Background(), g, envred.AlgSpectral, envred.OrderRequest{Spectral: opt})
		elapsed := time.Since(t0).Seconds()
		if err != nil {
			log.Fatalf("%s: %v", budget.name, err)
		}
		fmt.Printf("%-22s %10d %12.6f %10.3f\n",
			budget.name, res.Stats.Esize, res.Info.Lambda2, elapsed)
	}
	fmt.Println("\nRCM reference:")
	fmt.Printf("%-22s %10d\n", "RCM", envred.Esize(g, envred.RCM(g)))
}
