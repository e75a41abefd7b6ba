// Package gen generates the deterministic synthetic test problems that
// stand in for the Boeing–Harwell and NASA matrices of the paper's Section
// 4 (which are not redistributable here). Each named problem matches its
// original in order n, nonzero count and — most importantly for ordering
// behaviour — topology class: multi-DOF structural shells and frames for
// the BCSSTK series, planar/surface triangulations for the NASA meshes,
// sparse networks for POW9, and a large 3-D lattice for IN3C.
//
// Every generator takes an explicit seed and is bit-for-bit reproducible.
package gen

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Stencil selects the node-level connectivity of the structured mesh
// generators.
type Stencil int

const (
	// Stencil5 is the 4-neighbor (5-point) grid.
	Stencil5 Stencil = iota
	// StencilTri is a triangulated grid: 4-neighbor plus one diagonal per
	// cell (≈6 neighbors per interior node).
	StencilTri
	// Stencil9 is the 8-neighbor (9-point) grid.
	Stencil9
	// Stencil13 is the 8-neighbor grid plus second-nearest axial neighbors
	// (≈12 neighbors), modeling braced/stiffened panels.
	Stencil13
)

// meshEdges adds node-grid edges for the given stencil. wrap joins the last
// row back to the first (a cylinder), matching shell-of-revolution models.
// The addEdge callback receives node ids y*nx+x.
func meshEdges(nx, ny int, st Stencil, wrap bool, seed int64, addEdge func(a, b int)) {
	rng := rand.New(rand.NewSource(seed))
	id := func(x, y int) int { return ((y+ny)%ny)*nx + x }
	for y := 0; y < ny; y++ {
		lastRow := y+1 >= ny
		if lastRow && !wrap {
			// horizontal edges of the final row only
			for x := 0; x+1 < nx; x++ {
				addEdge(id(x, y), id(x+1, y))
			}
			continue
		}
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				addEdge(id(x, y), id(x+1, y))
			}
			addEdge(id(x, y), id(x, y+1))
			hasCell := x+1 < nx
			if hasCell {
				switch st {
				case StencilTri:
					if rng.Intn(2) == 0 {
						addEdge(id(x, y), id(x+1, y+1))
					} else {
						addEdge(id(x+1, y), id(x, y+1))
					}
				case Stencil9, Stencil13:
					addEdge(id(x, y), id(x+1, y+1))
					addEdge(id(x+1, y), id(x, y+1))
				}
			}
			if st == Stencil13 {
				if x+2 < nx {
					addEdge(id(x, y), id(x+2, y))
				}
				if wrap || y+2 < ny {
					addEdge(id(x, y), id(x, (y+2)%ny))
				}
			}
		}
	}
}

// Mesh returns a structured nx×ny surface mesh with the given stencil;
// wrap produces a cylinder.
func Mesh(nx, ny int, st Stencil, wrap bool, seed int64) *graph.Graph {
	b := graph.NewBuilder(nx * ny)
	meshEdges(nx, ny, st, wrap, seed, b.AddEdge)
	return b.Build()
}

// WithDOF expands a node graph into a structural stiffness pattern with
// dof unknowns per node: the dofs of one node form a clique, and all dof
// pairs of adjacent nodes are connected — the block structure that gives
// the BCSSTK matrices their high nonzero densities. Node v becomes dofs
// v·dof … v·dof+dof−1.
func WithDOF(node *graph.Graph, dof int) *graph.Graph {
	if dof <= 1 {
		return node
	}
	n := node.N()
	b := graph.NewBuilder(n * dof)
	for p := 0; p < n; p++ {
		for a := 0; a < dof; a++ {
			for c := a + 1; c < dof; c++ {
				b.AddEdge(p*dof+a, p*dof+c)
			}
		}
		for _, q := range node.Neighbors(p) {
			if int(q) < p {
				continue
			}
			for a := 0; a < dof; a++ {
				for c := 0; c < dof; c++ {
					b.AddEdge(p*dof+a, int(q)*dof+c)
				}
			}
		}
	}
	return b.Build()
}

// Shell expands an nx×ny node mesh into a multi-DOF stiffness pattern; see
// WithDOF.
func Shell(nx, ny, dof int, st Stencil, wrap bool, seed int64) *graph.Graph {
	return WithDOF(Mesh(nx, ny, st, wrap, seed), dof)
}

// Airfoil returns an annular "airfoil" triangulation in the style of the
// Barth meshes: concentric rings of vertices whose counts grow with the
// radius, consecutive vertices linked within each ring, and each vertex
// linked to its angularly nearest neighbors on the next ring. The result
// is an irregular planar triangulation with a hole — the mesh class on
// which the paper's spectral ordering shines (BARTH4, BLKHOLE, PWT, BODY).
func Airfoil(rings, c0 int, growth float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, rings)
	starts := make([]int, rings+1)
	n := 0
	for r := 0; r < rings; r++ {
		c := int(math.Round(float64(c0) * math.Pow(growth, float64(r))))
		if c < 3 {
			c = 3
		}
		counts[r] = c
		starts[r] = n
		n += c
	}
	starts[rings] = n
	// Angular positions with slight jitter for irregularity.
	theta := make([]float64, n)
	for r := 0; r < rings; r++ {
		c := counts[r]
		off := rng.Float64() * 2 * math.Pi / float64(c)
		for k := 0; k < c; k++ {
			jit := (rng.Float64() - 0.5) * 0.5 * 2 * math.Pi / float64(c)
			theta[starts[r]+k] = math.Mod(off+2*math.Pi*float64(k)/float64(c)+jit+2*math.Pi, 2*math.Pi)
		}
	}
	b := graph.NewBuilder(n)
	// Within-ring cycle.
	for r := 0; r < rings; r++ {
		c := counts[r]
		for k := 0; k < c; k++ {
			b.AddEdge(starts[r]+k, starts[r]+(k+1)%c)
		}
	}
	// Between rings: connect each outer vertex to the two angularly nearest
	// inner vertices (forming triangles).
	for r := 0; r+1 < rings; r++ {
		ci, co := counts[r], counts[r+1]
		for k := 0; k < co; k++ {
			vo := starts[r+1] + k
			// nearest inner index by angle (rings are near-uniform, so a
			// proportional guess plus local scan suffices)
			guess := int(theta[vo] / (2 * math.Pi) * float64(ci))
			bestA, bestB := -1, -1
			var dA, dB float64 = math.Inf(1), math.Inf(1)
			for dk := -2; dk <= 2; dk++ {
				idx := ((guess+dk)%ci + ci) % ci
				vi := starts[r] + idx
				d := math.Abs(math.Mod(theta[vo]-theta[vi]+3*math.Pi, 2*math.Pi) - math.Pi)
				if d < dA {
					bestB, dB = bestA, dA
					bestA, dA = vi, d
				} else if d < dB && vi != bestA {
					bestB, dB = vi, d
				}
			}
			b.AddEdge(vo, bestA)
			if bestB >= 0 {
				b.AddEdge(vo, bestB)
			}
		}
	}
	return b.Build()
}

// PowerNet returns a power-network-like graph: a locality-biased random
// tree (lines follow geography, so new nodes attach to recent ones) with a
// degree cap, plus sparse cross-links. Average degree lands near POW9's
// ≈2.8.
func PowerNet(n int, cross int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	deg := make([]int, n)
	const window = 60
	const degCap = 6
	for v := 1; v < n; v++ {
		lo := v - window
		if lo < 0 {
			lo = 0
		}
		u := lo + rng.Intn(v-lo)
		for tries := 0; deg[u] >= degCap && tries < 8; tries++ {
			u = lo + rng.Intn(v-lo)
		}
		b.AddEdge(v, u)
		deg[v]++
		deg[u]++
	}
	for i := 0; i < cross; i++ {
		u := rng.Intn(n)
		span := 1 + rng.Intn(3*window)
		v := u + span
		if v >= n {
			v = u - span
		}
		if v >= 0 && v != u {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Frame3DL returns an L-shaped 7-point lattice with interior voids: two
// bars of cross-section w×h and lengths a and b joined at a right angle,
// from which `voids` small rectangular pockets are carved (deterministic
// per seed). Bent, perforated geometry is what separates the global
// spectral ordering from breadth-first local search — BFS fronts widen at
// the corner and grow ragged around the holes, while the Fiedler vector
// stays smooth along the intrinsic arc length. Real large NASA frames
// (IN3C) are bent and full of cutouts, never perfect boxes.
func Frame3DL(a, b, w, h, voids int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	// Bar 1: x∈[0,a), y∈[0,w). Bar 2: x∈[a−w,a), y∈[w,w+b). Both z∈[0,h).
	type box struct{ x0, x1, y0, y1, z0, z1 int }
	holes := make([]box, 0, voids)
	for i := 0; i < voids; i++ {
		// A pocket at most a third of each cross-section dimension, placed
		// strictly inside one of the arms so connectivity is preserved.
		dw, dh := 1+rng.Intn(w/3+1), 1+rng.Intn(h/3+1)
		dl := 1 + rng.Intn(8)
		var bx box
		if rng.Intn(2) == 0 && a > dl+2 {
			x := 1 + rng.Intn(a-dl-2)
			y := 1 + rng.Intn(max(1, w-dw-1))
			z := 1 + rng.Intn(max(1, h-dh-1))
			bx = box{x, x + dl, y, y + dw, z, z + dh}
		} else {
			y := w + 1 + rng.Intn(max(1, b-dl-2))
			x := a - w + 1 + rng.Intn(max(1, w-dw-1))
			z := 1 + rng.Intn(max(1, h-dh-1))
			bx = box{x, x + dw, y, y + dl, z, z + dh}
		}
		holes = append(holes, bx)
	}
	type pt struct{ x, y, z int }
	inside := func(p pt) bool {
		if p.z < 0 || p.z >= h || p.x < 0 || p.y < 0 {
			return false
		}
		ok := false
		if p.y < w {
			ok = p.x < a
		} else {
			ok = p.x >= a-w && p.x < a && p.y < w+b
		}
		if !ok {
			return false
		}
		for _, bx := range holes {
			if p.x >= bx.x0 && p.x < bx.x1 && p.y >= bx.y0 && p.y < bx.y1 && p.z >= bx.z0 && p.z < bx.z1 {
				return false
			}
		}
		return true
	}
	// Assign contiguous ids by scanning the bounding box.
	id := make(map[pt]int)
	var pts []pt
	for z := 0; z < h; z++ {
		for y := 0; y < w+b; y++ {
			for x := 0; x < a; x++ {
				p := pt{x, y, z}
				if inside(p) {
					id[p] = len(pts)
					pts = append(pts, p)
				}
			}
		}
	}
	gb := graph.NewBuilder(len(pts))
	for _, p := range pts {
		for _, q := range []pt{{p.x + 1, p.y, p.z}, {p.x, p.y + 1, p.z}, {p.x, p.y, p.z + 1}} {
			if j, ok := id[q]; ok {
				gb.AddEdge(id[p], j)
			}
		}
	}
	g := gb.Build()
	// Overlapping voids can, in principle, pinch off slivers; keep the
	// dominant component so the problem stays connected like the original.
	if !graph.IsConnected(g) {
		comps := graph.Components(g)
		g, _ = g.Subgraph(comps[0])
	}
	return g
}
