package service

import (
	"net/http"
	"time"

	envred "repro"
	"repro/client"
)

// POST /v1/order/batch: many graphs, one algorithm, one round trip. The
// batch rides Session.OrderBatch, so the per-request overhead a singleton
// /v1/order pays — result allocation, permutation re-validation, envelope
// re-scoring of cached orderings — is paid once per batch instead of once
// per graph. Items are interned into the tenant Session and share its
// artifact cache and persistent store exactly as singleton requests do; a
// batch holds one solve-pool slot for its whole duration.

func (s *Server) handleOrderBatch(w http.ResponseWriter, r *http.Request, tnt *tenant) {
	req, aerr := s.decodeRequest(w, r, tnt.sess, true)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	ctx, cancel := req.withTimeout(r.Context())
	defer cancel()
	if aerr := s.admit(ctx, tnt, req); aerr != nil {
		s.m.orders.inc(req.algorithm, "timeout")
		writeError(w, aerr)
		return
	}
	defer s.leave(tnt)

	// A malformed item fails alone; valid items proceed (graphs is
	// compacted, idx maps back to items).
	resp := &client.BatchResult{
		Algorithm: req.algorithm,
		Count:     len(req.items),
		Results:   make([]*client.OrderResult, len(req.items)),
	}
	graphs := make([]*envred.Graph, 0, len(req.items))
	idx := make([]int, 0, len(req.items))
	for i, it := range req.items {
		if it.err != nil {
			resp.Errors = append(resp.Errors, &client.BatchItemError{Index: i, Message: it.err.Message})
			continue
		}
		graphs = append(graphs, it.g)
		idx = append(idx, i)
	}

	start := time.Now()
	var results []envred.BatchResult
	if len(graphs) > 0 {
		var err error
		results, err = tnt.sess.OrderBatch(ctx, graphs, envred.BatchOptions{
			Algorithm: req.algorithm,
			Seed:      req.seed,
			Workers:   req.workers,
		})
		if err != nil {
			// Unreachable after decodeRequest's Lookup; report it uniformly anyway.
			writeError(w, badRequest("%v", err))
			return
		}
	}
	elapsed := time.Since(start)
	s.m.orderSeconds.observe(elapsed.Seconds())
	s.m.batches.inc()

	for k := range results {
		i, res := idx[k], &results[k]
		if res.Err != nil {
			aerr := orderError(res.Err, res.Result, graphs[k])
			s.m.orders.inc(req.algorithm, statusLabel(aerr))
			resp.Errors = append(resp.Errors, &client.BatchItemError{Index: i, Message: aerr.Message})
			continue
		}
		resp.Results[i] = s.orderResult(req.algorithm, res.Result, &req.items[i], res.Result.Elapsed)
	}
	resp.Failed = len(resp.Errors)
	resp.ElapsedMS = millis(elapsed)
	s.logf("order-batch tenant=%s algorithm=%s items=%d failed=%d elapsed=%.1fms",
		tnt.name, req.algorithm, resp.Count, resp.Failed, resp.ElapsedMS)
	writeJSON(w, http.StatusOK, resp)
}
