package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	envred "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/scratch"
)

// Replies are the client package's exported response types, so the wire
// format is declared once, where callers decode it.

// apiError is the uniform error reply: {"error": ...} plus, on 503
// timeouts, the best_so_far flag and — when an interrupted eigensolve
// left a usable fallback — the partial ordering itself.
type apiError struct {
	Status    int       `json:"-"`
	Message   string    `json:"error"`
	BestSoFar *bool     `json:"best_so_far,omitempty"`
	Perm      perm.Perm `json:"perm,omitempty"`
}

func (e *apiError) Error() string { return e.Message }

func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(doc)
}

func writeError(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.Status, e)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Ordering execution ----------------------------------------------------------

// admit is the admission step of every ordering endpoint. It counts the
// request in flight and takes a tenant slot and a solve-pool slot,
// queueing under ctx. Then it interns each decoded graph in the tenant
// Session — by pointer when decoding found it by its text, else by
// fingerprint, recording the text's digest — so a repeat resolves to the
// resident instance whose artifacts apply. After a nil return the caller
// must call leave.
func (s *Server) admit(ctx context.Context, tnt *tenant, req *request) *apiError {
	s.m.inFlight.add(1)
	if aerr := acquire(ctx, tnt.sem); aerr != nil {
		s.m.inFlight.add(-1)
		return aerr
	}
	if aerr := acquire(ctx, s.solveSem); aerr != nil {
		release(tnt.sem)
		s.m.inFlight.add(-1)
		return aerr
	}
	for i := range req.items {
		it := &req.items[i]
		if it.err != nil {
			continue
		}
		switch {
		case it.text != nil:
			it.g, it.resident = tnt.sess.InternText(it.g, *it.text)
		case it.weight == nil:
			it.g, it.resident = tnt.sess.Intern(it.g)
		}
		if it.textHit {
			s.m.textHits.inc()
		}
		if it.resident {
			s.m.cacheHits.inc()
		} else {
			s.m.cacheMisses.inc()
		}
	}
	return nil
}

// leave releases what admit took.
func (s *Server) leave(tnt *tenant) {
	release(s.solveSem)
	release(tnt.sem)
	s.m.inFlight.add(-1)
}

// runOrder executes one singleton ordering end to end: admission,
// dispatch, metrics. ctx must already carry the request's timeout;
// queueing counts against it.
func (s *Server) runOrder(ctx context.Context, tnt *tenant, req *request) (*client.OrderResult, *apiError) {
	if aerr := s.admit(ctx, tnt, req); aerr != nil {
		s.m.orders.inc(req.algorithm, "timeout")
		return nil, aerr
	}
	defer s.leave(tnt)
	it := &req.items[0]
	start := time.Now()
	var (
		res envred.Result
		err error
	)
	if req.algorithm == "AUTO" {
		res, err = tnt.sess.AutoWith(ctx, it.g, envred.AutoOptions{Seed: req.seed})
	} else {
		res, err = tnt.sess.Do(ctx, it.g, req.algorithm, envred.OrderRequest{Seed: req.seed, Weight: it.weight})
	}
	elapsed := time.Since(start)
	s.m.orderSeconds.observe(elapsed.Seconds())
	if err != nil {
		aerr := orderError(err, res, it.g)
		s.m.orders.inc(req.algorithm, statusLabel(aerr))
		return nil, aerr
	}
	return s.orderResult(req.algorithm, res, it, elapsed), nil
}

// orderResult counts one served ordering and builds its reply. elapsed is
// the ordering's own time: measured around the Session call for a
// singleton, the item's Result.Elapsed inside a batch.
func (s *Server) orderResult(algorithm string, res envred.Result, it *item, elapsed time.Duration) *client.OrderResult {
	s.m.orders.inc(algorithm, "ok")
	st := res.Stats
	out := &client.OrderResult{
		Algorithm: res.Algorithm,
		N:         it.g.N(),
		Nonzeros:  it.g.Nonzeros(),
		Perm:      res.Perm,
		Envelope: client.Envelope{Esize: st.Esize, Ework: st.Ework, Bandwidth: st.Bandwidth,
			OneSum: st.OneSum, TwoSum: st.TwoSum, MaxFrontwidth: st.MaxFrontwidth},
		Solve:     res.Solve,
		ElapsedMS: millis(elapsed),
	}
	if res.Solve != nil {
		out.Lambda2 = res.Solve.Lambda
	}
	if res.Report != nil {
		out.Winners = res.Report.Wins
		out.Eigensolves = res.Report.Eigensolves
	}
	out.Cached = cached(it, out.Solve)
	if out.Solve != nil && !out.Cached {
		s.m.eigenSeconds.observe(elapsed.Seconds())
	}
	return out
}

// cached is a reply's cached flag: the graph was resident in the tenant
// Session, or the answer's solve record came from the persistent store.
func cached(it *item, solve *envred.SolveStats) bool {
	return it.resident || (solve != nil && solve.FromStore)
}

// acquire takes one slot of sem (nil = unlimited), honoring ctx.
func acquire(ctx context.Context, sem chan struct{}) *apiError {
	if sem == nil {
		return nil
	}
	select {
	case sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		f := false
		return &apiError{Status: http.StatusServiceUnavailable,
			Message: fmt.Sprintf("request expired while queued: %v", ctx.Err()), BestSoFar: &f}
	}
}

func release(sem chan struct{}) {
	if sem != nil {
		<-sem
	}
}

// orderError maps an ordering failure to the wire. A cancelled eigensolve
// (deadline or client disconnect) is 503; when the run left a usable
// best-so-far ordering — either a valid permutation in the result or a
// fallback Fiedler vector inside the typed cancellation error — the reply
// carries it with best_so_far=true, so callers with hard latency budgets
// still get a (suboptimal but valid) ordering for their money.
func orderError(err error, res envred.Result, g *graph.Graph) *apiError {
	var ec *envred.ErrCancelled
	if errors.As(err, &ec) {
		p := res.Perm
		if len(p) != g.N() || p.Check() != nil {
			p = nil
		}
		if p == nil && ec.Vector != nil && len(ec.Vector) == g.N() {
			ws := scratch.Get()
			p, _, _ = core.OrderFiedler(ws, g, ec.Vector)
			scratch.Put(ws)
		}
		best := p != nil
		return &apiError{Status: http.StatusServiceUnavailable,
			Message: fmt.Sprintf("ordering interrupted: %v", err), BestSoFar: &best, Perm: p}
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		f := false
		return &apiError{Status: http.StatusServiceUnavailable,
			Message: fmt.Sprintf("ordering interrupted: %v", err), BestSoFar: &f}
	}
	return &apiError{Status: http.StatusInternalServerError, Message: err.Error()}
}

func statusLabel(e *apiError) string {
	switch e.Status {
	case http.StatusServiceUnavailable:
		return "timeout"
	case http.StatusBadRequest:
		return "invalid"
	default:
		return "error"
	}
}

// Handlers --------------------------------------------------------------------

func (s *Server) handleOrder(w http.ResponseWriter, r *http.Request, tnt *tenant) {
	req, aerr := s.decodeRequest(w, r, tnt.sess, false)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	ctx, cancel := req.withTimeout(r.Context())
	defer cancel()
	resp, aerr := s.runOrder(ctx, tnt, req)
	if aerr != nil {
		s.logf("order tenant=%s algorithm=%s n=%d status=%d err=%q", tnt.name, req.algorithm, req.items[0].g.N(), aerr.Status, aerr.Message)
		writeError(w, aerr)
		return
	}
	s.logf("order tenant=%s algorithm=%s n=%d esize=%d cached=%v elapsed=%.1fms",
		tnt.name, resp.Algorithm, resp.N, resp.Envelope.Esize, resp.Cached, resp.ElapsedMS)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request, tnt *tenant) {
	req, aerr := s.decodeRequest(w, r, tnt.sess, false)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	j := &job{id: newJobID(), tenant: tnt, req: req, n: req.items[0].g.N(), created: time.Now(), state: jobQueued}
	// The reply is taken before a worker can see the job: a job answered
	// from a warm cache may finish before this handler writes, and a 202
	// always reports the job queued.
	doc := j.status()
	if aerr := s.submitJob(j); aerr != nil {
		writeError(w, aerr)
		return
	}
	s.logf("job %s submitted tenant=%s algorithm=%s n=%d", j.id, tnt.name, req.algorithm, j.n)
	writeJSON(w, http.StatusAccepted, doc)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request, tnt *tenant) {
	j, ok := s.jobs.get(r.PathValue("id"), tnt)
	if !ok {
		writeError(w, &apiError{Status: http.StatusNotFound, Message: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request, tnt *tenant) {
	j, ok := s.jobs.get(r.PathValue("id"), tnt)
	if !ok {
		writeError(w, &apiError{Status: http.StatusNotFound, Message: "unknown job"})
		return
	}
	j.mu.Lock()
	state, resp, fail := j.state, j.resp, j.fail
	j.mu.Unlock()
	switch state {
	case jobDone:
		writeJSON(w, http.StatusOK, resp)
	case jobFailed:
		writeError(w, fail)
	default:
		// Not terminal yet: 202 with the poll document.
		writeJSON(w, http.StatusAccepted, j.status())
	}
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request, _ *tenant) {
	writeJSON(w, http.StatusOK, map[string]any{
		// AUTO is the service-level portfolio mode on top of the registry.
		"algorithms": append([]string{"AUTO"}, envred.Algorithms()...),
	})
}

func (s *Server) handleFiedler(w http.ResponseWriter, r *http.Request, tnt *tenant) {
	req, aerr := s.decodeRequest(w, r, tnt.sess, false)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	ctx, cancel := req.withTimeout(r.Context())
	defer cancel()
	if aerr := s.admit(ctx, tnt, req); aerr != nil {
		writeError(w, aerr)
		return
	}
	defer s.leave(tnt)

	it := &req.items[0]
	start := time.Now()
	vec, st, err := tnt.sess.Fiedler(ctx, it.g)
	elapsed := time.Since(start)
	if err != nil {
		var ec *envred.ErrCancelled
		if errors.As(err, &ec) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			best := ec != nil && ec.Vector != nil
			writeError(w, &apiError{Status: http.StatusServiceUnavailable,
				Message: fmt.Sprintf("eigensolve interrupted: %v", err), BestSoFar: &best})
			return
		}
		writeError(w, badRequest("%v", err))
		return
	}
	resp := &client.FiedlerResult{
		N:         it.g.N(),
		Lambda2:   st.Lambda,
		Vector:    vec,
		Solve:     &st,
		Cached:    cached(it, &st),
		ElapsedMS: millis(elapsed),
	}
	if !resp.Cached {
		s.m.eigenSeconds.observe(elapsed.Seconds())
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is the liveness probe: always 200 while the process can
// answer HTTP. A degraded persistent store is reported in the body but
// never fails liveness — the daemon keeps serving from its in-memory
// caches; restarting it would only throw those away too. Readiness detail
// lives on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	doc := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"in_flight":      s.m.inFlight.value(),
	}
	if s.resilient != nil {
		doc["store"] = s.resilient.State().String()
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleReadyz is the readiness probe. Like /healthz it always answers
// 200 — an open store breaker means cache-only operation, not an
// unservable daemon, so readiness reports "degraded" in the body instead
// of flapping the probe — but the body carries the full breaker detail:
// position, failure streak, retry/timeout/drop counters, and the last
// error, failure and healthy-op timestamps.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	doc := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"in_flight":      s.m.inFlight.value(),
	}
	switch {
	case s.resilient != nil:
		rs := s.resilient.Stats()
		storeDoc := map[string]any{
			"breaker":              rs.State.String(),
			"consecutive_failures": rs.ConsecutiveFailures,
			"retries":              rs.Retries,
			"timeouts":             rs.Timeouts,
			"fast_fails":           rs.FastFails,
			"put_drops":            rs.PutDrops,
			"trips":                rs.Trips,
			"recoveries":           rs.Recoveries,
		}
		if rs.LastError != "" {
			storeDoc["last_error"] = rs.LastError
		}
		if !rs.LastFailure.IsZero() {
			storeDoc["last_failure_unix_ms"] = rs.LastFailure.UnixMilli()
		}
		if !rs.LastSuccess.IsZero() {
			storeDoc["last_success_unix_ms"] = rs.LastSuccess.UnixMilli()
		}
		doc["store"] = storeDoc
		if rs.Degraded {
			doc["status"] = "degraded"
		}
	case s.store != nil:
		// A store without the resilience wrapper has no breaker to report.
		doc["store"] = map[string]any{"breaker": "none"}
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.writeTo(w)
}
