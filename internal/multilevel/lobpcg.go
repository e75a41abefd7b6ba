package multilevel

import (
	"math"

	"repro/internal/graph"
	"repro/internal/laplacian"
	"repro/internal/linalg"
	"repro/internal/scratch"
)

// The V-cycle's minimization step stops once ‖Lx − ρx‖ ≤ lobpcgTol·ρ or
// after lobpcgMaxSteps steps. It only has to carry the iterate into λ2's
// basin; RQI does the polishing.
const (
	lobpcgMaxSteps = 50
	lobpcgTol      = 1e-2
)

// ritzPivotMin is the smallest Cholesky pivot of the step's unit-diagonal
// Gram matrix that still counts as an independent basis vector.
const ritzPivotMin = 1e-10

// lobpcgWS is the V-cycle's minimization step: block-size-one LOBPCG
// (Knyazev 2001) on 𝟏⊥, preconditioned by the Laplacian's diagonal D. Each
// step minimizes the Rayleigh quotient over span{x, D⁻¹r, p}, where
// r = Lx − ρx and p is the direction the previous step moved along, by a
// Rayleigh–Ritz projection onto that space. Lx and Lp are carried by the
// same linear combinations as x and p, so a step costs one matvec: L
// applied to D⁻¹r. Besides the matvec a step makes three passes over the
// vectors: the residual, the Gram matrices and the update.
//
// RQI converges to the eigenvalue nearest its start, and a smoothed
// interpolant can sit nearer λ3 or λ4 than λ2; minimizing first puts RQI in
// λ2's basin. x (⊥ 1) is refined in place and keeps its norm up to
// rounding. The step's five work vectors come from ws and go back to it on
// return. It returns the matvec count.
//
//envlint:noalloc
func lobpcgWS(ws *scratch.Workspace, g *graph.Graph, op laplacian.Interface, x []float64) int {
	n := len(x)
	m := ws.Mark()
	defer ws.Release(m)
	ax, w, aw, p, ap := ws.Float64s(n), ws.Float64s(n), ws.Float64s(n), ws.Float64s(n), ws.Float64s(n)
	clear(p)
	clear(ap)
	op.Apply(x, ax)
	matvecs := 1
	xx, xax := linalg.Dot(x, x), linalg.Dot(x, ax)
	var pp float64 // ‖p‖²; 0 until a step has moved
	for step := 0; step < lobpcgMaxSteps && xx > 0; step++ {
		rho := xax / xx
		var rr, wsum float64
		for v := range w {
			r := ax[v] - rho*x[v]
			rr += r * r
			d := float64(g.Degree(v))
			if d == 0 {
				d = 1
			}
			w[v] = r / d
			wsum += w[v]
		}
		if math.Sqrt(rr/xx) <= lobpcgTol*rho {
			break
		}
		mean := wsum / float64(n)
		for v := range w {
			w[v] -= mean
		}
		op.Apply(w, aw)
		matvecs++

		// Gram matrices of the basis [x w p] under L (a) and the identity
		// (b), upper triangles. Before the first move p is zero and the
		// basis is [x w].
		var a, b [3][3]float64
		a[0][0], b[0][0], b[2][2] = xax, xx, pp
		for v := range w {
			xv, wv, pv, awv, apv := x[v], w[v], p[v], aw[v], ap[v]
			a[0][1] += xv * awv
			a[1][1] += wv * awv
			b[0][1] += xv * wv
			b[1][1] += wv * wv
			a[0][2] += xv * apv
			a[1][2] += wv * apv
			a[2][2] += pv * apv
			b[0][2] += xv * pv
			b[1][2] += wv * pv
		}
		k := 2
		if pp > 0 {
			k = 3
		}
		c, ok := smallestRitz(a, b, k)
		if !ok && k == 3 {
			// p has become dependent on x and w: restart without it.
			k = 2
			c, ok = smallestRitz(a, b, k)
		}
		if !ok {
			break
		}
		if k == 2 {
			c[2] = 0
		}
		// p ← c1·w + c2·p and x ← c0·x + p, images alike.
		xx, xax, pp = 0, 0, 0
		for v := range x {
			pv := c[1]*w[v] + c[2]*p[v]
			apv := c[1]*aw[v] + c[2]*ap[v]
			xv := c[0]*x[v] + pv
			axv := c[0]*ax[v] + apv
			p[v], ap[v], x[v], ax[v] = pv, apv, xv, axv
			xx += xv * xv
			xax += xv * axv
			pp += pv * pv
		}
	}
	return matvecs
}

// smallestRitz returns the coefficients, over the first k basis vectors, of
// the smallest eigenpair of the pencil (a, b): a·c = θ·b·c with cᵀ·b·c = 1.
// Only the upper triangles of a and b are read. It reports false when b's
// leading k×k block is numerically singular.
//
//envlint:noalloc
func smallestRitz(a, b [3][3]float64, k int) (c [3]float64, ok bool) {
	// Scale the basis to unit norm, so that b has a unit diagonal and each
	// Cholesky pivot is the squared sine of a vector's angle to the span of
	// the vectors before it.
	var sc [3]float64
	for i := 0; i < k; i++ {
		if b[i][i] <= 0 {
			return c, false
		}
		sc[i] = 1 / math.Sqrt(b[i][i])
	}
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			a[i][j] *= sc[i] * sc[j]
			b[i][j] *= sc[i] * sc[j]
		}
	}
	// Cholesky: b = l·lᵀ.
	var l [3][3]float64
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			s := b[j][i]
			for t := 0; t < j; t++ {
				s -= l[i][t] * l[j][t]
			}
			if i == j {
				if s < ritzPivotMin {
					return c, false
				}
				l[i][i] = math.Sqrt(s)
			} else {
				l[i][j] = s / l[j][j]
			}
		}
	}
	// s = l⁻¹·a·l⁻ᵀ, a symmetric standard eigenproblem: first h = l⁻¹·a,
	// then s = l⁻¹·hᵀ (= (h·l⁻ᵀ)ᵀ, which is s itself).
	var h, s [3][3]float64
	for j := 0; j < k; j++ {
		for i := 0; i < k; i++ {
			v := a[min(i, j)][max(i, j)]
			for t := 0; t < i; t++ {
				v -= l[i][t] * h[t][j]
			}
			h[i][j] = v / l[i][i]
		}
	}
	for j := 0; j < k; j++ {
		for i := 0; i < k; i++ {
			v := h[j][i]
			for t := 0; t < i; t++ {
				v -= l[i][t] * s[t][j]
			}
			s[i][j] = v / l[i][i]
		}
	}
	y := smallestEigvec(&s, k)
	// c = l⁻ᵀ·y, then undo the scaling.
	for i := k - 1; i >= 0; i-- {
		v := y[i]
		for j := i + 1; j < k; j++ {
			v -= l[j][i] * c[j]
		}
		c[i] = v / l[i][i]
	}
	for i := 0; i < k; i++ {
		c[i] *= sc[i]
	}
	return c, true
}

// smallestEigvec returns the unit eigenvector of the smallest eigenvalue of
// the symmetric leading k×k block of s (k ≤ 3), by cyclic Jacobi rotations.
// s is overwritten.
//
//envlint:noalloc
func smallestEigvec(s *[3][3]float64, k int) [3]float64 {
	// Symmetrize: the two triangles of l⁻¹·a·l⁻ᵀ differ by rounding.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			s[i][j] = (s[i][j] + s[j][i]) / 2
			s[j][i] = s[i][j]
		}
	}
	var v [3][3]float64
	for i := 0; i < k; i++ {
		v[i][i] = 1
	}
	for sweep := 0; sweep < 32; sweep++ {
		var off, diag float64
		for i := 0; i < k; i++ {
			diag += s[i][i] * s[i][i]
			for j := i + 1; j < k; j++ {
				off += s[i][j] * s[i][j]
			}
		}
		if off <= 1e-32*diag {
			break
		}
		for p := 0; p < k-1; p++ {
			for q := p + 1; q < k; q++ {
				if s[p][q] == 0 {
					continue
				}
				// The rotation that zeroes s[p][q] (Numerical Recipes §11.1).
				theta := (s[q][q] - s[p][p]) / (2 * s[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if math.IsInf(theta*theta, 1) {
					t = 1 / (2 * math.Abs(theta))
				}
				if theta < 0 {
					t = -t
				}
				cs := 1 / math.Sqrt(t*t+1)
				sn := t * cs
				for r := 0; r < k; r++ {
					srp, srq := s[r][p], s[r][q]
					s[r][p], s[r][q] = cs*srp-sn*srq, sn*srp+cs*srq
				}
				for r := 0; r < k; r++ {
					spr, sqr := s[p][r], s[q][r]
					s[p][r], s[q][r] = cs*spr-sn*sqr, sn*spr+cs*sqr
				}
				for r := 0; r < k; r++ {
					vrp, vrq := v[r][p], v[r][q]
					v[r][p], v[r][q] = cs*vrp-sn*vrq, sn*vrp+cs*vrq
				}
			}
		}
	}
	best := 0
	for i := 1; i < k; i++ {
		if s[i][i] < s[best][best] {
			best = i
		}
	}
	var y [3]float64
	for i := 0; i < k; i++ {
		y[i] = v[i][best]
	}
	return y
}
