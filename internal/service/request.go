package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	envred "repro"
	"repro/internal/graph"
	"repro/internal/mm"
)

// requestJSON is the JSON request document of every ordering endpoint.
// /v1/order, /v1/jobs and /v1/fiedler carry one graph in the embedded
// itemJSON; /v1/order/batch carries Items. Query parameters (algorithm,
// seed, timeout, workers) fill any field the body leaves zero.
type requestJSON struct {
	Algorithm string `json:"algorithm,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	// Workers bounds a batch's internal parallelism (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	itemJSON
	Items []itemJSON `json:"items,omitempty"`
}

// itemJSON carries one graph: exactly one of Graph and MatrixMarket.
type itemJSON struct {
	Graph        *graphJSON `json:"graph,omitempty"`
	MatrixMarket string     `json:"matrix_market,omitempty"`
}

// graphJSON is the adjacency-list graph encoding: n vertices labeled
// 0..n-1 and an undirected edge list (duplicates and self-loops are
// dropped). Weights, when present, align with Edges and feed the WEIGHTED
// algorithm.
type graphJSON struct {
	N       int       `json:"n"`
	Edges   [][2]int  `json:"edges"`
	Weights []float64 `json:"weights,omitempty"`
}

// maxBatchItems bounds one batch document; larger batches should be split
// (or sent as async jobs) rather than monopolize a solve-pool slot.
const maxBatchItems = 4096

// extraVertices is how many vertices a request may declare beyond its
// body length in bytes. Building a graph costs memory per declared vertex
// before any edge is read, so the body must pay for its vertex count:
// Matrix Market text from WriteGraph spends at least four bytes per vertex
// on the diagonal, and the allowance covers small graphs that are mostly
// isolated vertices.
const extraVertices = 65536

// request is one decoded ordering request.
type request struct {
	algorithm string // canonical registry name, or "AUTO"
	seed      int64
	timeout   time.Duration
	workers   int
	items     []item // exactly one outside /v1/order/batch
}

// item is one graph of a request. A batch item that failed to decode
// carries err instead of a graph and fails alone.
type item struct {
	g *graph.Graph
	// weight is non-nil for WEIGHTED requests; weighted graphs are not
	// interned (the pattern may repeat with different values).
	weight func(u, v int) float64
	// text is the SHA-256 of the Matrix Market text an unweighted graph
	// was read from (nil for JSON edge lists and WEIGHTED requests).
	// Admission records it on the graph's cache entry, so the same text
	// finds the graph again without a parse.
	text *[sha256.Size]byte
	// textHit is set when decoding found g by its text in the tenant
	// Session and skipped the parse.
	textHit bool
	// resident is set by admission when the tenant Session already held
	// a graph with this content (g then points at it).
	resident bool
	err      *apiError
}

func badRequest(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Message: fmt.Sprintf(format, args...)}
}

// decodeRequest reads the request of any ordering endpoint. A JSON body
// (Content-Type containing "json", and always on the batch endpoint)
// carries requestJSON; any other body is a raw Matrix Market matrix.
// Oversize bodies, and graphs declaring more than len(body)+extraVertices
// vertices in total, give 413; malformed parameters or graphs give 400,
// except that a malformed batch item fails alone. A Matrix Market text
// sess already holds a graph for (see readMM) is not parsed again.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, sess *envred.Session, batch bool) (*request, *apiError) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes()))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &apiError{Status: http.StatusRequestEntityTooLarge,
				Message: fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit)}
		}
		return nil, badRequest("reading body: %v", err)
	}
	req := &request{seed: s.cfg.Seed, timeout: s.cfg.DefaultTimeout}
	q := r.URL.Query()
	if v := q.Get("seed"); v != "" {
		if req.seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			return nil, badRequest("bad seed %q: %v", v, err)
		}
	}
	if v := q.Get("timeout"); v != "" {
		if req.timeout, err = time.ParseDuration(v); err != nil {
			return nil, badRequest("bad timeout %q (want a Go duration like 2s): %v", v, err)
		}
	}
	if v := q.Get("workers"); v != "" {
		if req.workers, err = strconv.Atoi(v); err != nil {
			return nil, badRequest("bad workers %q: %v", v, err)
		}
	}

	var doc requestJSON
	isJSON := batch || strings.Contains(r.Header.Get("Content-Type"), "json")
	if isJSON {
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, badRequest("bad JSON body: %v", err)
		}
		if doc.Seed != 0 {
			req.seed = doc.Seed
		}
		if doc.TimeoutMS != 0 {
			req.timeout = time.Duration(doc.TimeoutMS) * time.Millisecond
		}
		if doc.Workers != 0 {
			req.workers = doc.Workers
		}
	}
	if doc.Algorithm == "" {
		doc.Algorithm = q.Get("algorithm")
	}
	if aerr := req.setAlgorithm(doc.Algorithm, batch); aerr != nil {
		return nil, aerr
	}
	weighted := req.algorithm == envred.AlgWeighted

	budget := len(body) + extraVertices
	var srcs []itemJSON
	switch {
	case batch && len(doc.Items) == 0:
		return nil, badRequest("batch carries no items")
	case batch && len(doc.Items) > maxBatchItems:
		return nil, &apiError{Status: http.StatusRequestEntityTooLarge,
			Message: fmt.Sprintf("batch has %d items, limit %d", len(doc.Items), maxBatchItems)}
	case batch:
		srcs = doc.Items
	case isJSON:
		srcs = []itemJSON{doc.itemJSON}
	case len(body) == 0:
		return nil, badRequest("empty body (send a Matrix Market matrix, or a JSON document with Content-Type: application/json)")
	default:
		it := readMM(sess, bytes.NewReader(body), textDigest(body, weighted), weighted, &budget)
		if it.err != nil {
			return nil, it.err
		}
		req.items = []item{it}
		return req, nil
	}

	// JSON graphs declare their vertex counts up front: charge them all
	// before building any graph. Matrix Market items charge theirs as
	// their size lines are read.
	for _, src := range srcs {
		if src.Graph != nil && src.Graph.N > 0 {
			if src.Graph.N > budget {
				return nil, tooManyVertices()
			}
			budget -= src.Graph.N
		}
	}
	req.items = make([]item, len(srcs))
	for i := range srcs {
		it := &req.items[i]
		switch src := &srcs[i]; {
		case src.Graph != nil:
			*it = buildGraphJSON(src.Graph, weighted)
		case src.MatrixMarket != "":
			*it = readMM(sess, strings.NewReader(src.MatrixMarket), textDigest(src.MatrixMarket, weighted), weighted, &budget)
		default:
			what := "JSON body"
			if batch {
				what = "item"
			}
			it.err = badRequest("%s carries neither \"graph\" nor \"matrix_market\"", what)
		}
		if it.err != nil && (!batch || it.err.Status == http.StatusRequestEntityTooLarge) {
			return nil, it.err
		}
	}
	return req, nil
}

// setAlgorithm canonicalizes the requested algorithm. Singleton requests
// default to the AUTO portfolio; a batch must name a registered algorithm
// other than AUTO (a portfolio race with its own reply shape) and
// WEIGHTED (which needs per-item edge weights).
func (req *request) setAlgorithm(name string, batch bool) *apiError {
	req.algorithm = strings.ToUpper(strings.TrimSpace(name))
	switch {
	case batch && req.algorithm == "":
		return badRequest("batch requests must name an algorithm")
	case batch && (req.algorithm == "AUTO" || req.algorithm == envred.AlgWeighted):
		return badRequest("algorithm %s is not batchable (use POST /v1/order per graph)", req.algorithm)
	case req.algorithm == "":
		req.algorithm = "AUTO"
	}
	if req.algorithm == "AUTO" {
		return nil
	}
	if _, ok := envred.Lookup(req.algorithm); !ok {
		known := strings.Join(envred.Algorithms(), ", ")
		if !batch {
			known += ", plus AUTO"
		}
		return badRequest("unknown algorithm %q (registered: %s)", name, known)
	}
	return nil
}

// withTimeout applies the request's timeout on top of parent.
func (req *request) withTimeout(parent context.Context) (context.Context, context.CancelFunc) {
	if req.timeout > 0 {
		return context.WithTimeout(parent, req.timeout)
	}
	return context.WithCancel(parent)
}

func tooManyVertices() *apiError {
	return &apiError{Status: http.StatusRequestEntityTooLarge,
		Message: fmt.Sprintf("graphs declare more vertices than the body has bytes plus %d", extraVertices)}
}

// textDigest returns the SHA-256 of an unweighted request's Matrix Market
// text, or nil for a WEIGHTED request, whose graphs are not interned. It
// hashes through a stack buffer, so a text held in a JSON string is not
// copied whole first.
func textDigest[T string | []byte](text T, weighted bool) *[sha256.Size]byte {
	if weighted {
		return nil
	}
	h := sha256.New()
	var buf [4096]byte
	for len(text) > 0 {
		n := copy(buf[:], text)
		h.Write(buf[:n])
		text = text[n:]
	}
	digest := new([sha256.Size]byte)
	h.Sum(digest[:0])
	return digest
}

// readMM decodes one Matrix Market graph from r and charges its vertices
// to the request's budget; a size line beyond the budget fails the whole
// request with 413 before the graph is built. digest is the text's
// SHA-256 (see textDigest; nil = not keyed). Algorithm and seed travel
// outside the text, so the text alone names the graph: when sess holds a
// graph read from the same text, that graph is charged to the budget,
// exactly as a parse would charge it, and r is not read.
func readMM(sess *envred.Session, r io.Reader, digest *[sha256.Size]byte, weighted bool, budget *int) item {
	it := item{text: digest}
	if digest != nil {
		if g, ok := sess.LookupText(*digest); ok {
			if g.N() > *budget {
				return item{err: tooManyVertices()}
			}
			*budget -= g.N()
			it.g, it.textHit = g, true
			return it
		}
	}
	g, weight, err := mm.Read(r, weighted, *budget)
	switch {
	case errors.Is(err, mm.ErrTooManyVertices):
		return item{err: tooManyVertices()}
	case err != nil:
		return item{err: badRequest("bad Matrix Market body: %v", err)}
	}
	*budget -= g.N()
	it.g, it.weight = g, weight
	return it
}

func buildGraphJSON(doc *graphJSON, weighted bool) item {
	if doc.N < 0 {
		return item{err: badRequest("graph.n = %d is negative", doc.N)}
	}
	if weighted && len(doc.Weights) != len(doc.Edges) {
		return item{err: badRequest("graph.weights has %d entries for %d edges", len(doc.Weights), len(doc.Edges))}
	}
	b := graph.NewBuilder(doc.N)
	weights := map[[2]int]float64{}
	for i, e := range doc.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= doc.N || v < 0 || v >= doc.N {
			return item{err: badRequest("edge %d (%d,%d) out of range [0,%d)", i, u, v, doc.N)}
		}
		b.AddEdge(u, v)
		if weighted && u != v {
			if u > v {
				u, v = v, u
			}
			weights[[2]int{u, v}] = doc.Weights[i]
		}
	}
	g := b.Build()
	if !weighted {
		return item{g: g}
	}
	return item{g: g, weight: func(u, v int) float64 {
		if u > v {
			u, v = v, u
		}
		if w, ok := weights[[2]int{u, v}]; ok && w > 0 {
			return w
		}
		return 1
	}}
}
