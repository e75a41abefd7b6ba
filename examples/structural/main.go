// Structural analysis workload: the paper's motivating application. A
// BCSSTK-style stiffness pattern (multi-DOF shell) is reordered by all four
// contenders and then factorized with the envelope Cholesky solver,
// demonstrating the storage-and-time win the paper reports in Table 4.4.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	envred "repro"
)

func main() {
	// A shell problem in the BCSSTK29 family at reduced scale (the real
	// sizes run too; use cmd/paperbench for the full experiment).
	spec, ok := envred.ProblemByName("BCSSTK29")
	if !ok {
		log.Fatal("problem catalogue missing BCSSTK29")
	}
	p := spec.Generate(0.25, 42)
	g := p.G
	fmt.Printf("%s stand-in: n = %d, nnz = %d (paper: n = %d, nnz = %d)\n\n",
		p.Name, g.N(), g.Nonzeros(), p.PaperN, p.PaperNNZ)

	sess := envred.NewSession(envred.SessionOptions{Seed: 42})
	type contender struct {
		name string
		f    func() (envred.Perm, error)
	}
	contenders := []contender{
		{"SPECTRAL", func() (envred.Perm, error) {
			res, err := sess.Order(context.Background(), g, envred.AlgSpectral)
			return res.Perm, err
		}},
		{"GK", func() (envred.Perm, error) { return envred.GK(g), nil }},
		{"GPS", func() (envred.Perm, error) { return envred.GPS(g), nil }},
		{"RCM", func() (envred.Perm, error) { return envred.RCM(g), nil }},
	}

	fmt.Printf("%-10s %12s %10s %12s %14s %12s\n",
		"algorithm", "envelope", "bandwidth", "order (s)", "factor flops", "factor (s)")
	for _, c := range contenders {
		t0 := time.Now()
		o, err := c.f()
		if err != nil {
			log.Fatalf("%s: %v", c.name, err)
		}
		orderTime := time.Since(t0).Seconds()
		s := envred.Stats(g, o)

		// Assemble and factorize the SPD model matrix L+I under this
		// ordering: the work is Θ(Σ rᵢ²), so envelope wins compound.
		m, err := envred.NewEnvelopeMatrix(g, o, envred.LaplacianPlusIdentity(g))
		if err != nil {
			log.Fatal(err)
		}
		t1 := time.Now()
		fac, err := envred.Factorize(m)
		if err != nil {
			log.Fatalf("%s: factorization: %v", c.name, err)
		}
		factorTime := time.Since(t1).Seconds()
		fmt.Printf("%-10s %12d %10d %12.3f %14d %12.3f\n",
			c.name, s.Esize, s.Bandwidth, orderTime, fac.Flops(), factorTime)
	}
	fmt.Println("\nNote the paper's Table 4.4 pattern: factorization time tracks the")
	fmt.Println("envelope roughly quadratically, so the spectral ordering's smaller")
	fmt.Println("envelope repays its higher ordering cost at factorization time.")
}
