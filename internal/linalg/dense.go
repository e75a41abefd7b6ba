package linalg

import (
	"fmt"
	"math"
	"sort"
)

// Dense is a square dense matrix in row-major order. It is used for small
// problems only: the coarsest multilevel graph, verification oracles, and
// the exhaustive tests of the paper's theorems.
type Dense struct {
	N int
	A []float64 // row-major, length N*N
}

// NewDense returns a zero N×N matrix.
func NewDense(n int) *Dense {
	return &Dense{N: n, A: make([]float64, n*n)}
}

// At returns A[i][j].
func (d *Dense) At(i, j int) float64 { return d.A[i*d.N+j] }

// Set sets A[i][j] = v.
func (d *Dense) Set(i, j int, v float64) { d.A[i*d.N+j] = v }

// MulVec computes y = A·x.
func (d *Dense) MulVec(x, y []float64) {
	for i := 0; i < d.N; i++ {
		row := d.A[i*d.N : (i+1)*d.N]
		var s float64
		for j, xj := range x {
			s += row[j] * xj
		}
		y[i] = s
	}
}

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := NewDense(d.N)
	copy(c.A, d.A)
	return c
}

// SymEig computes the full eigendecomposition of a symmetric matrix using
// the cyclic Jacobi method. It returns eigenvalues in ascending order and
// the corresponding orthonormal eigenvectors as columns of V (V.At(i,k) is
// component i of eigenvector k). The input is not modified.
//
// Jacobi is slow (O(n³) per sweep) but unconditionally robust, which is
// exactly what the coarsest multilevel level (< ~100 vertices) and the test
// oracles need.
func SymEig(m *Dense) (eig []float64, V *Dense) {
	n := m.N
	a := m.Clone()
	V = NewDense(n)
	for i := 0; i < n; i++ {
		V.Set(i, i, 1)
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a.At(i, j) * a.At(i, j)
			}
		}
		if off < 1e-28*float64(n*n) {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := a.At(p, p), a.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Apply the rotation J(p,q,θ) on both sides.
				for k := 0; k < n; k++ {
					akp, akq := a.At(k, p), a.At(k, q)
					a.Set(k, p, c*akp-s*akq)
					a.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := a.At(p, k), a.At(q, k)
					a.Set(p, k, c*apk-s*aqk)
					a.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := V.At(k, p), V.At(k, q)
					V.Set(k, p, c*vkp-s*vkq)
					V.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	eig = make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = a.At(i, i)
	}
	// Sort ascending, permuting eigenvector columns alongside.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return eig[idx[i]] < eig[idx[j]] })
	sortedEig := make([]float64, n)
	sortedV := NewDense(n)
	for k, src := range idx {
		sortedEig[k] = eig[src]
		for i := 0; i < n; i++ {
			sortedV.Set(i, k, V.At(i, src))
		}
	}
	return sortedEig, sortedV
}

// Cholesky computes the lower-triangular factor G with A = G·Gᵀ of a
// symmetric positive definite matrix. It returns an error if a non-positive
// pivot is found. The result overwrites a copy; the input is unchanged.
func Cholesky(m *Dense) (*Dense, error) {
	n := m.N
	g := NewDense(n)
	for j := 0; j < n; j++ {
		d := m.At(j, j)
		for k := 0; k < j; k++ {
			d -= g.At(j, k) * g.At(j, k)
		}
		if d <= 0 {
			return nil, fmt.Errorf("linalg: cholesky pivot %d non-positive (%g)", j, d)
		}
		d = math.Sqrt(d)
		g.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := m.At(i, j)
			for k := 0; k < j; k++ {
				s -= g.At(i, k) * g.At(j, k)
			}
			g.Set(i, j, s/d)
		}
	}
	return g, nil
}
