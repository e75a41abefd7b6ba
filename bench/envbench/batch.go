package main

import (
	"context"
	"fmt"
	"math"
	"time"

	envred "repro"
	"repro/client"
	"repro/internal/service"
	"repro/internal/solver"
)

// batch_cold: one caller posts POST /v1/order/batch documents of 16 graphs
// with n from 300 to 3000, the algorithm rotating per document through
// SPECTRAL, SPECTRAL+SLOAN, SLOAN and RCM (see batchAlgorithms). The sizes
// straddle the 2000-vertex switch from direct Lanczos to the multilevel
// solver, so both run, spread across the batch worker pool: many small
// solves, where cold_paper has a few large ones behind a parallel SpMV.
//
// The documents come from a pool that the window cycles through. A
// document recurs only after other documents have pushed every one of its
// graphs out of the daemon's graph and artifact caches, so each ordering
// is cold; the checks confirm that no response was served from a cache.

const (
	batchItems  = 16
	batchPool   = 12 // documents, a multiple of len(batchAlgorithms)
	batchWarmUp = 6  // documents, one rotation
	batchMinN   = 300
	batchMaxN   = 3000
)

// batchAlgorithms is the per-document rotation. A spectral document takes
// about three times as long as a combinatorial one, so with the four
// algorithms in equal shares the median would fall in the gap between the
// two kinds and jump across it from run to run; two thirds spectral puts
// the median and the 90th percentile inside the spectral documents.
var batchAlgorithms = []string{envred.AlgSpectral, envred.AlgSpectralSloan, envred.AlgSloan,
	envred.AlgSpectral, envred.AlgSpectralSloan, envred.AlgRCM}

// batchGraph returns item i of pool document j. Every document holds the
// same sixteen shapes, item i with about minN + i·(maxN−minN)/15 vertices,
// so documents of one algorithm cost alike and the latency percentiles do
// not hang on which document drew the largest graphs. The seed and the
// document draw each graph's detail (see graphStream).
func batchGraph(seed int64, j, i, minN, maxN int) *envred.Graph {
	n := minN + i*(maxN-minN)/(batchItems-1)
	return graphStream(seed, "batch.graphs", j*batchItems+i, i, n)
}

type batchDoc struct {
	alg    string
	inputs []*input
	graphs []*envred.Graph
}

type batchCall struct {
	call
	doc int                 // index into the pool
	res *client.BatchResult // without the items' Perms, which ans stands for
	ans []answer            // by item; zero for a missing result
}

func (b *batchCall) send(cl *client.Client, doc *batchDoc, seed int64) {
	ctx := context.Background()
	if b.tr != nil {
		ctx = withTrace(ctx, b.tr)
	}
	b.sent = time.Now()
	b.due = b.sent
	b.res, b.err = cl.OrderBatch(ctx, doc.graphs, client.BatchRequest{Algorithm: doc.alg, Seed: seed})
	b.done = time.Now()
	if b.err == nil {
		b.keep()
	}
}

// keep replaces the items' orderings by their answers.
func (b *batchCall) keep() {
	b.ans = make([]answer, len(b.res.Results))
	for i, item := range b.res.Results {
		if item != nil {
			b.ans[i] = newAnswer(item.Perm, item.Envelope.Esize, false)
			item.Perm = nil
		}
	}
}

func batchCold(r *run) error {
	seed := r.cfg.seed
	var pool []*batchDoc
	var d *daemon
	teardown, err := r.setUp(func() (func(), error) {
		minN, maxN := batchMinN, batchMaxN
		if r.cfg.smoke {
			minN, maxN = 30, 300
		}
		pool = make([]*batchDoc, batchPool)
		for j := range pool {
			doc := &batchDoc{alg: batchAlgorithms[j%len(batchAlgorithms)]}
			for i := 0; i < batchItems; i++ {
				in, err := newInput(fmt.Sprintf("doc-%d/item-%d", j, i), batchGraph(seed, j, i, minN, maxN))
				if err != nil {
					return nil, err
				}
				doc.inputs = append(doc.inputs, in)
				doc.graphs = append(doc.graphs, in.g)
			}
			pool[j] = doc
		}
		var err error
		if d, err = startDaemon(service.Config{Seed: seed}, r.tr != nil); err != nil {
			return nil, err
		}
		for j := 0; j < batchWarmUp; j++ {
			var b batchCall
			b.send(d.cl, pool[j], seed)
			if b.err == nil && b.res.Failed > 0 {
				b.err = fmt.Errorf("%d items failed", b.res.Failed)
			}
			if b.err != nil {
				d.stop()
				return nil, fmt.Errorf("warm-up document %d: %w", j, b.err)
			}
		}
		return d.stop, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	// The window sends the whole pool in complete passes until its time is
	// up, so every run has the same mix of documents and a percentile falls
	// between the same documents in every run.
	var calls []batchCall
	w, delta, solves, err := d.measure(func(start time.Time) {
		for pass := 0; pass == 0 || time.Since(start) < seconds(r.cfg.seconds); pass++ {
			for j := range pool {
				k := pass*len(pool) + j
				b := batchCall{doc: (batchWarmUp + k) % len(pool)}
				b.tr = traceFor(r, k)
				b.send(d.cl, pool[b.doc], seed)
				calls = append(calls, b)
			}
		}
	})
	if err != nil {
		return err
	}
	r.attempted = len(calls) * batchItems
	lat := make([]float64, len(calls))
	q := quality{}
	completed := 0
	for k := range calls {
		b := &calls[k]
		lat[k] = b.latency()
		if b.err != nil {
			continue
		}
		doc := pool[b.doc]
		var itemMs float64
		for i, item := range b.res.Results {
			if item == nil || i >= batchItems {
				continue
			}
			completed++
			itemMs += item.ElapsedMS
			q.add(doc.inputs[i], doc.alg, item.Envelope.Esize)
			if item.Solve != nil {
				r.host.LaplacianWorkers = max(r.host.LaplacianWorkers, item.Solve.Workers)
			}
		}
		if b.res.ElapsedMS > 0 {
			r.host.BatchWorkers = max(r.host.BatchWorkers, int(math.Ceil(itemMs/b.res.ElapsedMS)))
		}
	}
	r.endToEnd(w, completed, summarize(lat), q)
	verifyBatch(r, pool, calls)
	if r.tr != nil {
		batchLayers(r, pool, calls, delta, solves)
	}
	return nil
}

// verifyBatch checks every item of every document: served cold, and the
// library's Session.Order answer (by digest; see answer), a valid ordering
// reported with its envelope size.
func verifyBatch(r *run, pool []*batchDoc, calls []batchCall) {
	refs := map[int][]*reference{}
	lib := envred.NewSession(envred.SessionOptions{Seed: r.cfg.seed})
	for k := range calls {
		b := &calls[k]
		doc := pool[b.doc]
		op := func(i int) int { return k*batchItems + i }
		if b.err != nil {
			for i := 0; i < batchItems; i++ {
				r.fail(op(i), "document %d: %v", b.doc, b.err)
			}
			continue
		}
		if len(b.res.Results) != batchItems {
			r.fail(op(0), "document %d: %d results for %d items", b.doc, len(b.res.Results), batchItems)
			continue
		}
		for _, e := range b.res.Errors {
			r.fail(op(e.Index), "document %d: %s", b.doc, e.Message)
		}
		want, seen := refs[b.doc]
		if !seen {
			want = make([]*reference, batchItems)
			refs[b.doc] = want
		}
		for i, item := range b.res.Results {
			in := doc.inputs[i]
			switch {
			case item == nil:
				r.fail(op(i), "%s: no result", in.name)
				continue
			case item.Cached:
				r.fail(op(i), "%s: served from a cache in a cold workload", in.name)
				continue
			}
			if want[i] == nil {
				res, err := lib.Order(context.Background(), in.g, doc.alg)
				if err != nil {
					r.fail(op(i), "%s %s: library: %v", in.name, doc.alg, err)
					continue
				}
				want[i] = newReference(in.g, res.Perm)
			}
			if err := b.ans[i].check(want[i]); err != nil {
				r.fail(op(i), "%s %s: %v", in.name, doc.alg, err)
			}
		}
	}
}

func batchLayers(r *run, pool []*batchDoc, calls []batchCall, delta map[string]float64, solves int64) {
	stats := make([]callStat, 0, len(calls))
	sent := map[*input]int{}
	var docMs, itemMs, docs, items float64
	var spectral, multilevel, matvecs float64
	for k := range calls {
		b := &calls[k]
		cs := callStat{c: &b.call, items: batchItems}
		if b.err == nil {
			cs.sessionMs = b.res.ElapsedMS
			docMs += b.res.ElapsedMS
			docs++
			for _, item := range b.res.Results {
				if item == nil {
					continue
				}
				items++
				itemMs += item.ElapsedMS
				if item.Solve != nil {
					spectral++
					matvecs += float64(item.Solve.MatVecs)
					if item.Solve.Scheme == solver.SchemeMultilevel {
						multilevel++
					}
				}
			}
		}
		stats = append(stats, cs)
		for _, in := range pool[b.doc].inputs {
			sent[in]++
		}
	}
	httpLayers(r, stats, delta, solves)
	replayDecode(r, sent)
	r.set("service.batch_ms", ratio(docMs, docs))
	r.set("service.item_ms", ratio(itemMs, items))
	r.set("pipeline.batch_efficiency", ratio(itemMs, docMs*float64(r.host.BatchWorkers)))
	r.set("solver.multilevel_share", ratio(multilevel, spectral))
	r.set("solver.matvecs", ratio(matvecs, items))
}
