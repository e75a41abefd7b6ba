package envred

import (
	"io"

	"repro/internal/chol"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/iccg"
	"repro/internal/laplacian"
	"repro/internal/mm"
	"repro/internal/multilevel"
	"repro/internal/order"
	"repro/internal/perm"
	"repro/internal/pipeline"
	"repro/internal/solver"
	"repro/internal/spy"
)

// Graph is an immutable undirected graph in CSR form — the adjacency
// structure of a sparse symmetric matrix with nonzero diagonal.
type Graph = graph.Graph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// Perm is an ordering in new→old convention: Perm[k] is the original index
// placed k-th.
type Perm = perm.Perm

// EnvelopeStats carries the envelope parameters of §2.1 of the paper.
type EnvelopeStats = envelope.Stats

// SpectralOptions configures the spectral ordering (eigensolver choice,
// tolerances, seed).
type SpectralOptions = core.Options

// SpectralMethod selects the Fiedler eigensolver.
type SpectralMethod = core.Method

// Eigensolver choices for SpectralOptions.Method.
const (
	MethodAuto       = core.MethodAuto
	MethodLanczos    = core.MethodLanczos
	MethodMultilevel = core.MethodMultilevel
)

// SpectralInfo reports diagnostics of a spectral ordering run (λ2,
// residual, chosen direction, solver used, full solver statistics).
type SpectralInfo = core.Info

// SolveStats is the uniform eigensolver telemetry of the unified solver
// engine: scheme, matvecs, RQI iterations, Jacobi sweeps, hierarchy depth,
// coarsest size, residual and convergence. It appears in
// SpectralInfo.Solve, AutoReport.Solve and per spectral candidate in
// AutoReport component reports.
type SolveStats = solver.Stats

// Graph construction --------------------------------------------------------

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph from an undirected edge list; duplicates and
// self-loops are dropped.
func FromEdges(n int, edges [][2]int) *Graph { return graph.FromEdges(n, edges) }

// Standard families (useful as quick fixtures; closed-form Fiedler values
// are documented on each).
var (
	Path        = graph.Path
	Cycle       = graph.Cycle
	Complete    = graph.Complete
	Star        = graph.Star
	Grid        = graph.Grid
	Grid9       = graph.Grid9
	Grid3D      = graph.Grid3D
	RandomGraph = graph.Random
)

// Orderings ------------------------------------------------------------------

// Classical orderings benchmarked by the paper, plus King and Sloan.
var (
	RCM          = order.RCM
	CuthillMcKee = order.CuthillMcKee
	GPS          = order.GPS
	GK           = order.GK
	King         = order.King
	Sloan        = order.Sloan
)

// Portfolio engine ------------------------------------------------------------

// AutoOptions configures the parallel portfolio ordering engine behind
// Session.AutoWith: the algorithm portfolio raced per connected component,
// the worker-pool width, the seed, eigensolver options, optional edge
// weights and an optional time budget.
type AutoOptions = pipeline.Options

// AutoReport describes a Session.Auto run: the winning algorithm and the
// losing candidates per component, win counts per algorithm, and the
// envelope parameters of the stitched ordering.
type AutoReport = pipeline.Report

// Canonical names of the built-in ordering algorithms — valid in
// AutoOptions.Portfolio and Session.Order (the registry accepts any
// case). Algorithms() lists these plus user registrations.
const (
	AlgRCM           = pipeline.AlgRCM
	AlgCM            = pipeline.AlgCM
	AlgGPS           = pipeline.AlgGPS
	AlgGK            = pipeline.AlgGK
	AlgKing          = pipeline.AlgKing
	AlgSloan         = pipeline.AlgSloan
	AlgSpectral      = pipeline.AlgSpectral
	AlgSpectralSloan = pipeline.AlgSpectralSloan
	AlgWeighted      = pipeline.AlgWeighted
)

// DefaultPortfolio returns the default Session.Auto contender set.
func DefaultPortfolio() []string { return pipeline.DefaultPortfolio() }

// Identity returns the identity ordering (the matrix as given).
func Identity(n int) Perm { return perm.Identity(n) }

// RandomPerm returns a seeded uniformly random ordering.
func RandomPerm(n int, seed int64) Perm { return perm.Random(n, seed) }

// MultilevelOptions configures the §3 multilevel eigensolver when used
// through SpectralOptions.Multilevel.
type MultilevelOptions = multilevel.Options

// Envelope measurement -------------------------------------------------------

// Stats computes every envelope parameter of g under the ordering.
func Stats(g *Graph, p Perm) EnvelopeStats { return envelope.Compute(g, p) }

// Esize computes only the envelope size.
func Esize(g *Graph, p Perm) int64 { return envelope.Esize(g, p) }

// Bandwidth computes only the bandwidth.
func Bandwidth(g *Graph, p Perm) int { return envelope.Bandwidth(g, p) }

// Frontwidths returns the wavefront profile |adj(V_j)|; its sum equals
// Esize (§2.4).
func Frontwidths(g *Graph, p Perm) []int32 { return envelope.Frontwidths(g, p) }

// EnvelopeBounds evaluates the Theorem 2.2-style eigenvalue bounds on the
// minimum envelope size and work, given λ2 and an upper bound on λn
// (use GershgorinBound).
func EnvelopeBounds(n, maxDeg int, lambda2, lambdaN float64) laplacian.Bounds {
	return laplacian.Theorem22(n, maxDeg, lambda2, lambdaN)
}

// GershgorinBound returns 2·Δ ≥ λn for the graph's Laplacian.
func GershgorinBound(g *Graph) float64 { return laplacian.New(g).GershgorinBound() }

// Envelope Cholesky ----------------------------------------------------------

// EnvelopeMatrix is a symmetric matrix held in envelope (variable-band)
// storage under a fixed ordering.
type EnvelopeMatrix = chol.Matrix

// CholFactor is an envelope Cholesky factor.
type CholFactor = chol.Factor

// ValueFn supplies matrix values by original vertex labels.
type ValueFn = chol.ValueFn

// NewEnvelopeMatrix assembles PᵀAP in envelope storage.
func NewEnvelopeMatrix(g *Graph, p Perm, vals ValueFn) (*EnvelopeMatrix, error) {
	return chol.NewMatrix(g, p, vals)
}

// Factorize computes the envelope Cholesky factorization in place.
func Factorize(m *EnvelopeMatrix) (*CholFactor, error) { return chol.Factorize(m) }

// LDLFactor is a root-free envelope LDLᵀ factorization (works for
// symmetric indefinite matrices with nonsingular leading minors and
// exposes the matrix inertia).
type LDLFactor = chol.LDLFactor

// FactorizeLDL computes the envelope LDLᵀ factorization in place.
func FactorizeLDL(m *EnvelopeMatrix) (*LDLFactor, error) { return chol.FactorizeLDL(m) }

// LaplacianPlusIdentity is the SPD model matrix L(G)+I with the graph's
// pattern — handy for end-to-end solve demos and benchmarks.
func LaplacianPlusIdentity(g *Graph) ValueFn { return chol.LaplacianPlusIdentity(g) }

// Incomplete factorization / PCG ---------------------------------------------

// SparseMatrix is a symmetric matrix in sorted CSR form under a fixed
// ordering — the representation IC(0) factors without fill.
type SparseMatrix = iccg.SparseSym

// IC0Factor is a zero-fill incomplete Cholesky preconditioner.
type IC0Factor = iccg.IC0

// IC0Options configures FactorizeIC0 (diagonal shift and breakdown
// retries).
type IC0Options = iccg.IC0Options

// PCGOptions configures the preconditioned conjugate gradient solver.
type PCGOptions = iccg.PCGOptions

// PCGResult reports a PCG solve.
type PCGResult = iccg.PCGResult

// NewSparseMatrix assembles PᵀAP in sorted CSR form.
func NewSparseMatrix(g *Graph, p Perm, vals ValueFn) (*SparseMatrix, error) {
	return iccg.NewSparseSym(g, p, vals)
}

// FactorizeIC0 computes a zero-fill incomplete Cholesky preconditioner.
// Its quality — and hence the PCG iteration count — depends on the
// ordering, which is the second use the paper's introduction gives for
// envelope-reducing orderings.
func FactorizeIC0(m *SparseMatrix, opt IC0Options) (*IC0Factor, error) {
	return iccg.FactorizeIC0(m, opt)
}

// PCG runs (preconditioned) conjugate gradients on A·x = b; pass pre=nil
// for plain CG.
func PCG(A *SparseMatrix, pre *IC0Factor, b, x []float64, opt PCGOptions) PCGResult {
	return iccg.PCG(A, pre, b, x, opt)
}

// I/O and visualization ------------------------------------------------------

// ReadMatrixMarket parses a Matrix Market coordinate file into the pattern
// graph of the (symmetrized) matrix.
func ReadMatrixMarket(r io.Reader) (*Graph, error) { return mm.ReadGraph(r) }

// ReadMatrixMarketWeighted additionally keeps entry magnitudes, returning
// a symmetric positive weight function for Session.OrderWeighted.
func ReadMatrixMarketWeighted(r io.Reader) (*Graph, func(u, v int) float64, error) {
	return mm.ReadWeighted(r)
}

// ReadHarwellBoeing parses a matrix in the Harwell–Boeing exchange format —
// the fixed-column FORTRAN format the paper's Boeing–Harwell test matrices
// were distributed in — returning the pattern graph and entry-magnitude
// weights (unit for pattern matrices).
func ReadHarwellBoeing(r io.Reader) (*Graph, func(u, v int) float64, error) {
	return mm.ReadHarwellBoeing(r)
}

// WriteMatrixMarket writes the graph's pattern (lower triangle + unit
// diagonal) as a Matrix Market symmetric pattern file.
func WriteMatrixMarket(w io.Writer, g *Graph) error { return mm.WriteGraph(w, g) }

// SpyASCII renders a size×size ASCII spy plot of the matrix pattern under
// the ordering (Figures 4.1–4.5 in terminal form).
func SpyASCII(g *Graph, p Perm, size int) string {
	return spy.Rasterize(g, p, size).ASCII()
}

// SpyPGM writes a size×size PGM spy plot.
func SpyPGM(w io.Writer, g *Graph, p Perm, size int) error {
	return spy.Rasterize(g, p, size).WritePGM(w)
}

// Test problems --------------------------------------------------------------

// Problem is a generated stand-in for one of the paper's test matrices.
type Problem = gen.Problem

// ProblemSpec describes a named problem of the paper's tables.
type ProblemSpec = gen.Spec

// Problems returns the specs of all 18 problems of Tables 4.1–4.3 in table
// order.
func Problems() []ProblemSpec { return gen.Specs() }

// ProblemByName looks up one problem spec (e.g. "BARTH4").
func ProblemByName(name string) (ProblemSpec, bool) { return gen.ByName(name) }
