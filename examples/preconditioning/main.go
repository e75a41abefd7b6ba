// Preconditioning study: the second application the paper's introduction
// gives for envelope-reducing orderings — the quality of an IC(0)
// incomplete-Cholesky preconditioner, and hence the iteration count of
// preconditioned conjugate gradients, depends on the matrix ordering
// (D'Azevedo–Forsyth–Tang 1992; Duff–Meurant 1989). This example measures
// PCG iterations for the same SPD system under different orderings.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	envred "repro"
)

func main() {
	spec, ok := envred.ProblemByName("DWT2680")
	if !ok {
		log.Fatal("problem catalogue missing DWT2680")
	}
	p := spec.Generate(1.0, 5)
	g := p.G
	fmt.Printf("system: %s stand-in, n = %d, nnz = %d\n", p.Name, g.N(), g.Nonzeros())
	fmt.Printf("matrix: L(G) + I,  solver: PCG with IC(0),  tol 1e-8\n\n")

	rng := rand.New(rand.NewSource(11))
	b := make([]float64, g.N())
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	spectral, err := envred.NewSession(envred.SessionOptions{Seed: 5}).Order(context.Background(), g, envred.AlgSpectral)
	if err != nil {
		log.Fatal(err)
	}
	orderings := []struct {
		name string
		p    envred.Perm
	}{
		{"random", envred.RandomPerm(g.N(), 1)},
		{"original", envred.Identity(g.N())},
		{"RCM", envred.RCM(g)},
		{"GK", envred.GK(g)},
		{"SPECTRAL", spectral.Perm},
	}

	fmt.Printf("%-10s %14s %12s\n", "ordering", "PCG iterations", "residual")
	for _, o := range orderings {
		a, err := envred.NewSparseMatrix(g, o.p, envred.LaplacianPlusIdentity(g))
		if err != nil {
			log.Fatal(err)
		}
		f, err := envred.FactorizeIC0(a, envred.IC0Options{MaxShiftRetries: 8})
		if err != nil {
			log.Fatalf("%s: %v", o.name, err)
		}
		// Permute the right-hand side into ordering positions.
		pb := make([]float64, len(b))
		for i, v := range o.p {
			pb[i] = b[v]
		}
		x := make([]float64, len(b))
		res := envred.PCG(a, f, pb, x, envred.PCGOptions{Tol: 1e-8})
		if !res.Converged {
			log.Fatalf("%s: PCG did not converge (%+v)", o.name, res)
		}
		fmt.Printf("%-10s %14d %12.2e\n", o.name, res.Iterations, res.Residual)
	}

	// Unpreconditioned baseline.
	a, _ := envred.NewSparseMatrix(g, envred.Identity(g.N()), envred.LaplacianPlusIdentity(g))
	x := make([]float64, len(b))
	plain := envred.PCG(a, nil, b, x, envred.PCGOptions{Tol: 1e-8})
	fmt.Printf("%-10s %14d %12.2e  (no preconditioner)\n", "plain CG", plain.Iterations, plain.Residual)
}
