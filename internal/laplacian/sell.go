package laplacian

import "sort"

// sellC is the slice height C of the SELL-C-σ layout: the number of rows
// whose accumulators the inner kernel carries simultaneously. Eight
// float64 accumulators fit the 16 vector registers of every amd64 level
// with room for the column gathers, and give eight independent
// floating-point dependency chains where the CSR row loop has one.
const sellC = 8

// Layout constants for the SELL-C-σ slice operator, measured on the bench
// grids (see BenchmarkSpMV).
const (
	// SellSigma is the σ sorting-window size: vertices are sorted by
	// degree (descending) within windows of σ consecutive rows before
	// being packed into slices of sellC rows. Larger windows make slices
	// more degree-uniform (less ragged tail) but scatter the x-vector
	// gathers further from the natural row order. Rounded down to a
	// multiple of sellC; minimum sellC.
	SellSigma = 256

	// SellMinRows is the row count below which Auto/AutoFrom keep the
	// plain CSR operator: the slice layout pays a packing pass at
	// construction, which only amortizes across the many matvecs of an
	// eigensolve on graphs with enough rows.
	SellMinRows = 8192
)

// Sell is the Laplacian operator in a cache-blocked SELL-C-σ slice layout
// (Kreutzer et al.'s "Sliced ELLPACK" adapted to the implicit-valued
// Laplacian: diagonal = degree, off-diagonals = −1, so no values array is
// stored at all). Rows are degree-sorted within σ-windows and packed into
// slices of C = 8 rows; each slice stores the first Kmin neighbor columns
// of its rows column-major (Kmin = the slice's minimum degree), so the
// inner loop is a branch-free stride of eight independent gathers and
// subtractions with no padding entries. The few neighbors beyond Kmin in a
// ragged slice follow as per-lane tails, and the ≤ C−1 leftover rows of
// the final partial window run through the scalar CSR kernel.
//
// Sell is bitwise-identical to the CSR Op for every input: each row's
// accumulation visits exactly the same terms in exactly the same order
// (diagonal first, then neighbors in adjacency order) — the layout only
// changes which rows are in flight together, never the per-row reduction
// order. The equivalence property suite in sell_test.go pins this.
type Sell struct {
	op *Op

	rows    []int32 // slice lanes: rows[s*C+lane] = original vertex
	kmin    []int32 // per slice: columns covered by the full phase
	colOff  []int32 // per slice +1: start into cols
	cols    []int32 // full-phase columns, column-major within each slice
	tailOff []int32 // per slice +1: start into tailCols
	tails   []int32 // ragged per-lane tail columns, lane-major
	rest    []int32 // leftover rows (< C in the final window), CSR kernel
	nnz     int     // stored nonzeros, for partitioning and telemetry
}

// NewSell packs op's graph into the SELL-C-σ slice layout. The packing
// pass costs O(n log σ + nnz) and is worth a small number of matvecs of
// memory traffic; use it when the operator will be applied repeatedly
// (every eigensolve does), and prefer Auto/AutoFrom, which select it
// automatically above SellMinRows.
func NewSell(op *Op) *Sell { return newSell(op, SellSigma) }

// newSell packs with an explicit σ window, so tests can sweep it.
func newSell(op *Op, sigma int) *Sell {
	g := op.G
	n := g.N()
	if sigma < sellC {
		sigma = sellC
	}
	sigma -= sigma % sellC
	s := &Sell{op: op, nnz: len(g.Adj)}
	nSlices := n / sellC
	s.rows = make([]int32, 0, nSlices*sellC)
	s.kmin = make([]int32, 0, nSlices)
	s.colOff = append(make([]int32, 0, nSlices+1), 0)
	s.tailOff = append(make([]int32, 0, nSlices+1), 0)
	s.cols = make([]int32, 0, len(g.Adj))
	ord := make([]int32, sigma)
	for w0 := 0; w0 < n; w0 += sigma {
		w1 := w0 + sigma
		if w1 > n {
			w1 = n
		}
		win := ord[:w1-w0]
		for i := range win {
			win[i] = int32(w0 + i)
		}
		// Degree-descending, vertex-ascending: a deterministic total order,
		// so the layout (and the parallel partition derived from it) is a
		// pure function of the graph.
		sort.Slice(win, func(i, j int) bool {
			di, dj := g.Degree(int(win[i])), g.Degree(int(win[j]))
			if di != dj {
				return di > dj
			}
			return win[i] < win[j]
		})
		full := len(win) - len(win)%sellC
		for i := 0; i < full; i += sellC {
			lanes := win[i : i+sellC]
			kmin := g.Degree(int(lanes[sellC-1]))
			s.rows = append(s.rows, lanes...)
			s.kmin = append(s.kmin, int32(kmin))
			for k := 0; k < kmin; k++ {
				for _, rv := range lanes {
					s.cols = append(s.cols, g.Adj[int(g.Xadj[rv])+k])
				}
			}
			s.colOff = append(s.colOff, int32(len(s.cols)))
			for _, rv := range lanes {
				s.tails = append(s.tails, g.Adj[int(g.Xadj[rv])+kmin:g.Xadj[rv+1]]...)
			}
			s.tailOff = append(s.tailOff, int32(len(s.tails)))
		}
		s.rest = append(s.rest, win[full:]...)
	}
	return s
}

// Dim returns the number of vertices.
func (s *Sell) Dim() int { return s.op.Dim() }

// Workers reports the serial operator's single block.
func (s *Sell) Workers() int { return 1 }

// Apply computes y = L·x through the slice layout.
//
//envlint:noalloc
//envlint:readonly x
func (s *Sell) Apply(x, y []float64) {
	s.applySlices(x, y, 0, len(s.kmin))
	s.applyRest(x, y)
}

// ApplyAxpy computes y = L·x − beta·qprev fused into the slice pass (see
// Op.ApplyAxpy).
//
//envlint:noalloc
//envlint:readonly x qprev
func (s *Sell) ApplyAxpy(x, y []float64, beta float64, qprev []float64) {
	s.applyAxpySlices(x, y, beta, qprev, 0, len(s.kmin))
	s.applyAxpyRest(x, y, beta, qprev)
}

// applySlices computes slices lo:hi of y = L·x — the block kernel the
// parallel wrapper distributes. Each slice runs eight rows' accumulations
// as independent chains: a full phase covering the slice's common Kmin
// columns (branch-free, column-major gathers), then the ragged per-lane
// tails continued in place on y — the same per-row term order as CSR.
//
//envlint:noalloc
//envlint:readonly x
func (s *Sell) applySlices(x, y []float64, lo, hi int) {
	deg := s.op.deg
	cols := s.cols
	for si := lo; si < hi; si++ {
		r := s.rows[si*sellC : si*sellC+sellC : si*sellC+sellC]
		r0, r1, r2, r3 := r[0], r[1], r[2], r[3]
		r4, r5, r6, r7 := r[4], r[5], r[6], r[7]
		a0 := deg[r0] * x[r0]
		a1 := deg[r1] * x[r1]
		a2 := deg[r2] * x[r2]
		a3 := deg[r3] * x[r3]
		a4 := deg[r4] * x[r4]
		a5 := deg[r5] * x[r5]
		a6 := deg[r6] * x[r6]
		a7 := deg[r7] * x[r7]
		p := int(s.colOff[si])
		for e := int(s.colOff[si+1]); p < e; p += sellC {
			c := cols[p : p+sellC : p+sellC]
			a0 -= x[c[0]]
			a1 -= x[c[1]]
			a2 -= x[c[2]]
			a3 -= x[c[3]]
			a4 -= x[c[4]]
			a5 -= x[c[5]]
			a6 -= x[c[6]]
			a7 -= x[c[7]]
		}
		y[r0] = a0
		y[r1] = a1
		y[r2] = a2
		y[r3] = a3
		y[r4] = a4
		y[r5] = a5
		y[r6] = a6
		y[r7] = a7
		if s.tailOff[si+1] > s.tailOff[si] {
			s.tailSlice(x, y, si, r)
		}
	}
}

// tailSlice finishes the ragged lanes of slice si: each lane with more
// than Kmin neighbors continues its accumulation in place on y, visiting
// its remaining columns in adjacency order. Lanes are degree-descending,
// so the first lane with no tail ends the scan.
//
//envlint:noalloc
//envlint:readonly x r
func (s *Sell) tailSlice(x, y []float64, si int, r []int32) {
	g := s.op.G
	k := int(s.kmin[si])
	t := int(s.tailOff[si])
	for _, rv := range r {
		ext := int(g.Xadj[rv+1]) - int(g.Xadj[rv]) - k
		if ext <= 0 {
			break
		}
		a := y[rv]
		for e := 0; e < ext; e++ {
			a -= x[s.tails[t]]
			t++
		}
		y[rv] = a
	}
}

// applyRest runs the scalar CSR kernel over the leftover rows of the
// final partial window (at most sellC−1 rows).
//
//envlint:noalloc
//envlint:readonly x
func (s *Sell) applyRest(x, y []float64) {
	g := s.op.G
	for _, v := range s.rest {
		a := s.op.deg[v] * x[v]
		for _, w := range g.Neighbors(int(v)) {
			a -= x[w]
		}
		y[v] = a
	}
}

// applyAxpySlices is applySlices with the Lanczos recurrence term fused:
// each lane seeds deg·x − beta·qprev, exactly as the CSR kernel does.
//
//envlint:noalloc
//envlint:readonly x qprev
func (s *Sell) applyAxpySlices(x, y []float64, beta float64, qprev []float64, lo, hi int) {
	deg := s.op.deg
	cols := s.cols
	for si := lo; si < hi; si++ {
		r := s.rows[si*sellC : si*sellC+sellC : si*sellC+sellC]
		r0, r1, r2, r3 := r[0], r[1], r[2], r[3]
		r4, r5, r6, r7 := r[4], r[5], r[6], r[7]
		a0 := deg[r0]*x[r0] - beta*qprev[r0]
		a1 := deg[r1]*x[r1] - beta*qprev[r1]
		a2 := deg[r2]*x[r2] - beta*qprev[r2]
		a3 := deg[r3]*x[r3] - beta*qprev[r3]
		a4 := deg[r4]*x[r4] - beta*qprev[r4]
		a5 := deg[r5]*x[r5] - beta*qprev[r5]
		a6 := deg[r6]*x[r6] - beta*qprev[r6]
		a7 := deg[r7]*x[r7] - beta*qprev[r7]
		p := int(s.colOff[si])
		for e := int(s.colOff[si+1]); p < e; p += sellC {
			c := cols[p : p+sellC : p+sellC]
			a0 -= x[c[0]]
			a1 -= x[c[1]]
			a2 -= x[c[2]]
			a3 -= x[c[3]]
			a4 -= x[c[4]]
			a5 -= x[c[5]]
			a6 -= x[c[6]]
			a7 -= x[c[7]]
		}
		y[r0] = a0
		y[r1] = a1
		y[r2] = a2
		y[r3] = a3
		y[r4] = a4
		y[r5] = a5
		y[r6] = a6
		y[r7] = a7
		if s.tailOff[si+1] > s.tailOff[si] {
			s.tailSlice(x, y, si, r)
		}
	}
}

// applyAxpyRest is applyRest with the recurrence term fused.
//
//envlint:noalloc
//envlint:readonly x qprev
func (s *Sell) applyAxpyRest(x, y []float64, beta float64, qprev []float64) {
	g := s.op.G
	for _, v := range s.rest {
		a := s.op.deg[v]*x[v] - beta*qprev[v]
		for _, w := range g.Neighbors(int(v)) {
			a -= x[w]
		}
		y[v] = a
	}
}

// RayleighQuotient delegates to the CSR operator (called once per RQI
// step, not in the inner loop).
func (s *Sell) RayleighQuotient(x []float64) float64 { return s.op.RayleighQuotient(x) }

// GershgorinBound delegates to the CSR operator.
func (s *Sell) GershgorinBound() float64 { return s.op.GershgorinBound() }

var _ Interface = (*Sell)(nil)

// sliceEntries reports the stored entries (full-phase + tail) of slice
// si — the cost weight the nnz-balanced parallel partition uses.
func (s *Sell) sliceEntries(si int) int {
	return int(s.colOff[si+1]-s.colOff[si]) + int(s.tailOff[si+1]-s.tailOff[si])
}
