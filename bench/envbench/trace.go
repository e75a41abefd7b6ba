package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/laplacian"
	"repro/internal/store"
)

// Tracing lives in the benchmark, around its calls into each layer, and
// in wrappers around interfaces the benchmark itself hands to the system:
// the finest Laplacian operator, the artifact store, the HTTP transport
// and the daemon's handler.

// span is one timed layer call of one operation.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Its zero value is
// unusable; a nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// total sums span durations by name, the per-layer busy times, and
	// children by parent name.
	total, children map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), total: map[string]time.Duration{}, children: map[string]time.Duration{}}
}

// since records the span [start, now).
func (tr *tracer) since(op int, name, parent string, start time.Time) {
	tr.add(op, name, parent, start, time.Now())
}

// add records the span [start, end).
func (tr *tracer) add(op int, name, parent string, start, end time.Time) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{Op: op, Name: name, Parent: parent,
		Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0))})
	tr.total[name] += end.Sub(start)
	if parent != "" {
		tr.children[parent] += end.Sub(start)
	}
	tr.mu.Unlock()
}

// ms is the total time of the spans named name.
func (tr *tracer) ms(name string) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return ms(tr.total[name])
}

// childMs is the total time of the spans whose parent is named parent.
func (tr *tracer) childMs(parent string) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return ms(tr.children[parent])
}

// write stores the spans as one JSON object per line.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	tr.mu.Lock()
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	return f.Close()
}

// timedOp times every matvec of the Laplacian operator it wraps. One
// eigensolve drives it from one goroutine at a time.
type timedOp struct {
	laplacian.Interface
	applies int
	busy    time.Duration
}

func (o *timedOp) Apply(x, y []float64) {
	t := time.Now()
	o.Interface.Apply(x, y)
	o.busy += time.Since(t)
	o.applies++
}

func (o *timedOp) ApplyAxpy(x, y []float64, beta float64, z []float64) {
	t := time.Now()
	o.Interface.ApplyAxpy(x, y, beta, z)
	o.busy += time.Since(t)
	o.applies++
}

// timedStore counts and times the reads and writes the daemon makes to
// the artifact store the benchmark passes it.
type timedStore struct {
	store.Store
	gets, hits, puts atomic.Int64
	getNs, putNs     atomic.Int64
}

func (s *timedStore) Get(k store.Key) (*store.Artifact, error) {
	t := time.Now()
	a, err := s.Store.Get(k)
	s.getNs.Add(int64(time.Since(t)))
	s.gets.Add(1)
	if err == nil {
		s.hits.Add(1)
	}
	return a, err
}

func (s *timedStore) Put(k store.Key, a *store.Artifact) error {
	t := time.Now()
	err := s.Store.Put(k, a)
	s.putNs.Add(int64(time.Since(t)))
	s.puts.Add(1)
	return err
}

// storeCounts is a snapshot of a timedStore's counters.
type storeCounts struct{ gets, hits, puts, getNs, putNs int64 }

func (s *timedStore) snapshot() storeCounts {
	return storeCounts{s.gets.Load(), s.hits.Load(), s.puts.Load(), s.getNs.Load(), s.putNs.Load()}
}

func (a storeCounts) minus(b storeCounts) storeCounts {
	return storeCounts{a.gets - b.gets, a.hits - b.hits, a.puts - b.puts, a.getNs - b.getNs, a.putNs - b.putNs}
}

// opHeader carries a traced request's operation id from the client's
// transport to the handler timer.
const opHeader = "X-Envbench-Op"

type opKey struct{}

// opTrace collects the layer timings of one traced HTTP operation. The
// transport fields are written on the calling goroutine, the handler's
// (Unix nanoseconds) on the server's.
type opTrace struct {
	id                       int
	rtStart, rtEnd           time.Time
	reqBytes, respBytes      int64
	handlerStart, handlerEnd atomic.Int64
}

// handler returns the handler span.
func (ot *opTrace) handler() (start, end time.Time) {
	return time.Unix(0, ot.handlerStart.Load()), time.Unix(0, ot.handlerEnd.Load())
}

func withTrace(ctx context.Context, ot *opTrace) context.Context {
	return context.WithValue(ctx, opKey{}, ot)
}

// traceTable maps operation ids to their traces: the client transport
// registers a traced operation before sending it, and the handler timer
// looks it up on the server's goroutine.
type traceTable struct {
	mu  sync.Mutex
	ops map[int]*opTrace
}

func (t *traceTable) register(ot *opTrace) {
	t.mu.Lock()
	t.ops[ot.id] = ot
	t.mu.Unlock()
}

func (t *traceTable) lookup(id int) *opTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ops[id]
}

// transport times each traced round trip from the first byte sent to the
// response body's close, and counts the bytes on the wire.
type transport struct {
	base  http.RoundTripper
	table *traceTable
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ot, _ := req.Context().Value(opKey{}).(*opTrace)
	if ot == nil {
		return t.base.RoundTrip(req)
	}
	t.table.register(ot)
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, strconv.Itoa(ot.id))
	ot.reqBytes = req.ContentLength
	ot.rtStart = time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		ot.rtEnd = time.Now()
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, ot: ot}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	ot *opTrace
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.ot.respBytes += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.ot.rtEnd = time.Now()
	return err
}

// handlerTimer times the daemon's handler for traced requests.
type handlerTimer struct {
	next  http.Handler
	table *traceTable
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var ot *opTrace
	if id, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
		ot = h.table.lookup(id)
	}
	if ot == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	ot.handlerStart.Store(time.Now().UnixNano())
	h.next.ServeHTTP(w, r)
	ot.handlerEnd.Store(time.Now().UnixNano())
}
