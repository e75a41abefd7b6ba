package laplacian

import (
	"fmt"

	"repro/internal/graph"
)

// Weighted is the weighted graph Laplacian L = D_w − W, where W carries a
// positive weight per edge and D_w the weighted degrees. The paper's
// algorithm is pattern-only (all weights 1), but its §2.3 relaxation
// argument extends verbatim to the weighted 2-sum Σ w_uv (x_u − x_v)²:
// sorting the weighted Fiedler vector orders strongly-coupled rows
// adjacently. This is the natural extension when the matrix values are
// available (e.g. from a Matrix Market file with real entries).
type Weighted struct {
	G *graph.Graph
	// w is aligned with G.Adj: w[k] is the weight of the adjacency entry
	// G.Adj[k]. Symmetric entries carry equal weights.
	w    []float64
	wdeg []float64
}

// NewWeighted builds the weighted Laplacian with weight(u,v) > 0 per edge.
// weight is called once per direction and must be symmetric; it returns an
// error if any weight is non-positive (take absolute values of matrix
// entries first).
func NewWeighted(g *graph.Graph, weight func(u, v int) float64) (*Weighted, error) {
	n := g.N()
	w := make([]float64, len(g.Adj))
	wdeg := make([]float64, n)
	for v := 0; v < n; v++ {
		base := g.Xadj[v]
		for i, u := range g.Neighbors(v) {
			wt := weight(v, int(u))
			if wt <= 0 {
				return nil, fmt.Errorf("laplacian: non-positive weight %g on edge (%d,%d)", wt, v, u)
			}
			w[int(base)+i] = wt
			wdeg[v] += wt
		}
	}
	return &Weighted{G: g, w: w, wdeg: wdeg}, nil
}

// Dim returns the number of vertices.
func (o *Weighted) Dim() int { return o.G.N() }

// Apply computes y = L_w·x.
func (o *Weighted) Apply(x, y []float64) {
	g := o.G
	for v := 0; v < g.N(); v++ {
		s := o.wdeg[v] * x[v]
		base := g.Xadj[v]
		adj := g.Neighbors(v)
		for i, u := range adj {
			s -= o.w[int(base)+i] * x[u]
		}
		y[v] = s
	}
}

// ApplyAxpy computes y = L_w·x − beta·qprev in one pass (linalg.AxpyApplier).
func (o *Weighted) ApplyAxpy(x, y []float64, beta float64, qprev []float64) {
	g := o.G
	for v := 0; v < g.N(); v++ {
		s := o.wdeg[v]*x[v] - beta*qprev[v]
		base := g.Xadj[v]
		for i, u := range g.Neighbors(v) {
			s -= o.w[int(base)+i] * x[u]
		}
		y[v] = s
	}
}

// Workers reports the weighted operator's single row block.
func (o *Weighted) Workers() int { return 1 }

// RayleighQuotient returns xᵀL_w x / xᵀx via the weighted edge form.
func (o *Weighted) RayleighQuotient(x []float64) float64 {
	g := o.G
	var num, den float64
	for v := 0; v < g.N(); v++ {
		den += x[v] * x[v]
		base := g.Xadj[v]
		for i, u := range g.Neighbors(v) {
			if int(u) > v {
				d := x[v] - x[u]
				num += o.w[int(base)+i] * d * d
			}
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// GershgorinBound returns 2·max weighted degree ≥ λn(L_w).
func (o *Weighted) GershgorinBound() float64 {
	max := 0.0
	for _, d := range o.wdeg {
		if d > max {
			max = d
		}
	}
	return 2 * max
}

var _ Interface = (*Weighted)(nil)
