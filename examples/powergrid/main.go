// Power network end-to-end solve: reorder a POW9-style electrical network,
// factorize an SPD system on it with the envelope Cholesky solver, and
// solve — the complete direct-solver pipeline the envelope machinery
// exists to serve.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	envred "repro"
)

func main() {
	spec, ok := envred.ProblemByName("POW9")
	if !ok {
		log.Fatal("problem catalogue missing POW9")
	}
	p := spec.Generate(1.0, 9)
	g := p.G
	fmt.Printf("power network: n = %d buses, nnz = %d\n\n", g.N(), g.Nonzeros())

	// Reorder with the spectral-Sloan hybrid (best envelope) vs RCM.
	sess := envred.NewSession(envred.SessionOptions{Seed: 9})
	hybrid, err := sess.Order(context.Background(), g, envred.AlgSpectralSloan)
	if err != nil {
		log.Fatal(err)
	}
	rcm := envred.RCM(g)
	fmt.Printf("envelope: hybrid %d vs RCM %d\n\n",
		hybrid.Stats.Esize, envred.Esize(g, rcm))

	// Assemble the system: a weighted-Laplacian-like SPD "admittance"
	// matrix Y = L + I (shunt terms on the diagonal keep it definite), and
	// an injection vector with one source and one sink.
	m, err := envred.NewEnvelopeMatrix(g, hybrid.Perm, envred.LaplacianPlusIdentity(g))
	if err != nil {
		log.Fatal(err)
	}
	f, err := envred.Factorize(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("factor: %d envelope entries, %d flops\n", f.EnvelopeSize(), f.Flops())

	b := make([]float64, g.N())
	b[0] = 1        // source bus
	b[g.N()-1] = -1 // sink bus
	x := f.SolveOriginal(b)

	// Verify the residual through an independent matrix-vector product.
	check, err := envred.NewEnvelopeMatrix(g, envred.Identity(g.N()), envred.LaplacianPlusIdentity(g))
	if err != nil {
		log.Fatal(err)
	}
	ax := make([]float64, g.N())
	check.MulVec(x, ax)
	var resid, bn float64
	for i := range ax {
		d := ax[i] - b[i]
		resid += d * d
		bn += b[i] * b[i]
	}
	fmt.Printf("solve residual ‖Yx−b‖/‖b‖ = %.2e\n", math.Sqrt(resid/bn))
	fmt.Printf("potential at source %.4f, at sink %.4f\n", x[0], x[g.N()-1])
}
