// Command envorder computes an envelope-reducing ordering of a sparse
// symmetric matrix and reports the envelope parameters, in the spirit of
// the SPARSPAK ordering drivers.
//
// Input is one of:
//
//	-mm FILE        a Matrix Market coordinate file (symmetric or general)
//	-problem NAME   a bundled synthetic stand-in (e.g. BARTH4; see -list)
//	-grid WxH       a W×H 5-point grid
//
// The ordering algorithm is selected with -method (or its alias -alg):
// auto, identity, random, or any name in the ordering-service registry
// (rcm, cm, gps, gk, king, sloan, spectral, spectral+sloan, weighted, plus
// user registrations; hybrid aliases spectral+sloan; names are
// case-insensitive — see -list). Method auto races a portfolio on every
// connected component across -parallel workers and keeps the per-component
// winner (optionally capped by -budget); -portfolio picks the contenders
// (comma-separated registry names, default the built-in portfolio). The
// permutation is printed to -out (one 0-based original index per line, new
// order top to bottom).
//
// With -stats json the text report is replaced by a machine-readable JSON
// document carrying the envelope parameters, the number of eigensolves the
// run actually performed, the eigensolver statistics (scheme, matvecs, RQI
// iterations, hierarchy shape, convergence) and — for -method auto — the
// full per-candidate portfolio report.
//
// With -store URL the run reads and writes a persistent artifact store
// (fs:///path?max_bytes=N on disk, mem:// in process): eigensolves are
// keyed by matrix content and seed, so a second run on the same matrix
// performs zero solves and -stats json reports the store traffic
// (hits/misses/puts/errors) alongside eigensolves=0.
//
// With -batch, every positional argument is a Matrix Market file and all
// of them are ordered with one registered algorithm through the pipelined
// batch API (Session.OrderBatch; with -remote, one POST /v1/order/batch
// round trip), reporting a per-file table or one JSON array (-stats json).
//
// With -remote URL the ordering runs on an envorderd daemon instead of in
// process: the graph is loaded locally, shipped over the typed client
// (repro/client), and the daemon's permutation and envelope parameters are
// reported in the usual formats (-api-key authenticates against keyed
// daemons; -budget becomes the server-side ordering timeout). -spy, -out
// and -stats json work as usual; -weighted, -bounds, -portfolio and
// -parallel are local-only.
//
// Example:
//
//	envorder -problem BARTH4 -method spectral -scale 0.5
//	envorder -mm matrix.mtx -method auto -parallel 8
//	envorder -mm matrix.mtx -method auto -portfolio rcm,sloan,spectral
//	envorder -mm matrix.mtx -method auto -stats json | jq .portfolio.Solve
//	envorder -mm matrix.mtx -alg gk -out perm.txt
//	envorder -mm matrix.mtx -method spectral -store fs:///var/cache/envorder
//	envorder -mm matrix.mtx -method spectral -remote http://localhost:8080
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	envred "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/perm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("envorder: ")
	var (
		mmFile    = flag.String("mm", "", "Matrix Market input file")
		hbFile    = flag.String("hb", "", "Harwell-Boeing input file")
		problem   = flag.String("problem", "", "bundled problem name (see -list)")
		grid      = flag.String("grid", "", "WxH grid graph, e.g. 100x60")
		list      = flag.Bool("list", false, "list registered algorithms and bundled problems, then exit")
		alg       = flag.String("alg", "", "ordering algorithm (alias of -method)")
		method    = flag.String("method", "", "ordering algorithm: auto, identity, random, or any registered name (see -list); case-insensitive")
		portfolio = flag.String("portfolio", "", "comma-separated registry names raced by -method auto (default: the built-in portfolio)")
		parallel  = flag.Int("parallel", 0, "worker pool size for -method auto (0 = GOMAXPROCS)")
		budget    = flag.Duration("budget", 0, "soft time budget for -method auto (0 = unlimited)")
		scale     = flag.Float64("scale", 1.0, "problem scale for -problem")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("out", "", "write permutation to this file")
		stats     = flag.String("stats", "", "report format: 'json' replaces the text report with a machine-readable document (envelope parameters, eigensolver statistics, per-candidate portfolio results)")
		spyFlag   = flag.Bool("spy", false, "print an ASCII spy plot of the reordered matrix")
		weighted  = flag.Bool("weighted", false, "with -mm and -alg spectral: use matrix values as Laplacian weights")
		bounds    = flag.Bool("bounds", false, "print the Theorem 2.2 envelope lower bound vs the achieved envelope")
		remote    = flag.String("remote", "", "order on an envorderd daemon at this base URL instead of in process")
		apiKey    = flag.String("api-key", "", "API key for -remote daemons running with -api-keys")
		storeURL  = flag.String("store", "", "persistent artifact store URL (fs:///path?max_bytes=N, mem://): reuse eigensolves across runs")
		batch     = flag.Bool("batch", false, "order every positional Matrix Market file in one batch (Session.OrderBatch locally, POST /v1/order/batch with -remote)")
	)
	flag.Parse()

	if *batch {
		switch {
		case *method == "" && *alg == "":
			*method = "spectral"
		case *method == "":
			*method = *alg
		}
		if flag.NArg() == 0 {
			log.Fatal("-batch needs one or more Matrix Market files as arguments")
		}
		if *mmFile != "" || *hbFile != "" || *problem != "" || *grid != "" {
			log.Fatal("-batch takes its inputs as positional files; -mm/-hb/-problem/-grid do not apply")
		}
		if *weighted || *bounds || *spyFlag || *out != "" || *portfolio != "" {
			log.Fatal("-weighted, -bounds, -spy, -out and -portfolio do not apply to -batch")
		}
		runBatch(flag.Args(), *method, *seed, *budget, *stats, *remote, *apiKey, *storeURL)
		return
	}

	switch {
	case *method == "" && *alg == "":
		*method = "spectral"
	case *method == "":
		*method = *alg
	case *alg != "" && !strings.EqualFold(*alg, *method):
		log.Fatalf("-alg %q conflicts with -method %q; set only one", *alg, *method)
	}
	if *weighted && !strings.EqualFold(*method, "spectral") && !strings.EqualFold(*method, "weighted") {
		log.Fatalf("-weighted is only supported with -method spectral/weighted (got %q)", *method)
	}
	if *portfolio != "" && !strings.EqualFold(*method, "auto") {
		log.Fatalf("-portfolio only applies to -method auto (got %q)", *method)
	}
	switch {
	case *stats == "" || strings.EqualFold(*stats, "json"):
	default:
		log.Fatalf("unknown -stats format %q (supported: json)", *stats)
	}
	if strings.EqualFold(*stats, "json") && (*spyFlag || *bounds) {
		log.Fatal("-stats json replaces the text report and cannot be combined with -spy or -bounds")
	}
	if *remote != "" {
		switch {
		case *weighted:
			log.Fatal("-weighted is local-only (the daemon orders the shipped pattern)")
		case *bounds:
			log.Fatal("-bounds is local-only")
		case *portfolio != "" || *parallel != 0:
			log.Fatal("-portfolio and -parallel are local-only; the daemon picks its own portfolio settings")
		case *storeURL != "":
			log.Fatal("-store is local-only; point the daemon itself at a store (envorderd -store)")
		}
	}

	if *list {
		fmt.Printf("registered algorithms (usable as -method and in -portfolio):\n")
		fmt.Printf("  %s\n", strings.Join(envred.Algorithms(), ", "))
		fmt.Printf("  plus the driver methods: AUTO, IDENTITY, RANDOM (and HYBRID = SPECTRAL+SLOAN)\n\n")
		fmt.Printf("%-10s %-14s %10s %12s\n", "NAME", "SUITE", "N", "NNZ(lower)")
		for _, s := range gen.Specs() {
			fmt.Printf("%-10s %-14s %10d %12d\n", s.Name, s.Suite, s.PaperN, s.PaperNNZ)
		}
		return
	}

	var (
		g      *graph.Graph
		name   string
		weight func(u, v int) float64
	)
	switch {
	case *hbFile != "":
		f, err := os.Open(*hbFile)
		if err != nil {
			log.Fatal(err)
		}
		g, weight, err = envred.ReadHarwellBoeing(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		name = *hbFile
		if !*weighted {
			weight = nil // pattern-only ordering unless -weighted
		}
	case *weighted && *mmFile != "":
		f, err := os.Open(*mmFile)
		if err != nil {
			log.Fatal(err)
		}
		g, weight, err = envred.ReadMatrixMarketWeighted(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		name = *mmFile + " (weighted)"
	default:
		g, name = loadGraph(*mmFile, *problem, *grid, *scale, *seed)
	}

	if *remote != "" {
		runRemote(g, name, *remote, *apiKey, *method, *seed, *budget, *stats, *spyFlag, *out)
		return
	}

	var counted *envred.CountedStore
	var resil *envred.ResilientStore
	if *storeURL != "" {
		resil = openStore(*storeURL)
		defer resil.Close()
		counted = envred.NewCountedStore(resil, nil)
	}

	solvesBefore := core.EigensolveCount()
	start := time.Now()
	p, info, report := computeOrdering(g, weight, *method, *seed, *parallel, *budget, *portfolio, counted)
	elapsed := time.Since(start)
	solves := core.EigensolveCount() - solvesBefore

	if err := p.Check(); err != nil {
		log.Fatalf("internal error: invalid permutation: %v", err)
	}
	s := envelope.Compute(g, p)
	warnDegradedStore(resil)
	if strings.EqualFold(*stats, "json") {
		if err := writeStatsJSON(os.Stdout, name, g, *method, elapsed, s, info, report, solves, counted, resil); err != nil {
			log.Fatal(err)
		}
		if *out != "" {
			if err := writePerm(*out, p); err != nil {
				log.Fatal(err)
			}
			log.Printf("permutation written to %s", *out)
		}
		return
	}
	fmt.Printf("matrix    : %s (n=%d, nnz=%d)\n", name, g.N(), g.Nonzeros())
	fmt.Printf("algorithm : %s (%.3fs)\n", strings.ToUpper(*method), elapsed.Seconds())
	fmt.Printf("envelope  : %d\n", s.Esize)
	fmt.Printf("work Σr²  : %d\n", s.Ework)
	fmt.Printf("bandwidth : %d\n", s.Bandwidth)
	fmt.Printf("1-sum     : %d\n", s.OneSum)
	fmt.Printf("2-sum     : %d\n", s.TwoSum)
	fmt.Printf("max front : %d\n", s.MaxFrontwidth)
	if counted != nil {
		st := counted.Stats()
		fmt.Printf("store     : hits=%d misses=%d puts=%d errors=%d (eigensolves %d)\n",
			st.Hits, st.Misses, st.Puts, st.Errors, solves)
	}
	if info != nil {
		fmt.Printf("lambda2   : %.6g (residual %.2e, multilevel=%v, reversed=%v)\n",
			info.Lambda2, info.Residual, info.Multilevel, info.Reversed)
		fmt.Printf("solver    : %s (matvecs %d, spmv workers %d)\n",
			info.Solve.Scheme, info.Solve.MatVecs, info.Solve.Workers)
	}
	if report != nil {
		fmt.Printf("portfolio : %d component(s) on %d worker(s), spmv workers %d\n",
			len(report.Components), report.Parallelism, report.Solve.Workers)
		for _, cr := range report.Components {
			skipped := 0
			for _, c := range cr.Candidates {
				if c.Skipped {
					skipped++
				}
			}
			fmt.Printf("  comp %-4d n=%-8d winner=%-14s envelope=%-10d bandwidth=%-6d (skipped %d)\n",
				cr.Index, cr.Size, cr.Winner, cr.Stats.Esize, cr.Stats.Bandwidth, skipped)
		}
	}
	if *bounds && info != nil && info.Lambda2 > 0 {
		bd := envred.EnvelopeBounds(g.N(), g.MaxDegree(), info.Lambda2, envred.GershgorinBound(g))
		fmt.Printf("Thm 2.2   : Esize ≥ %.0f (achieved/bound = %.1fx), Ework ≥ %.0f (%.1fx)\n",
			bd.EsizeLower, float64(s.Esize)/bd.EsizeLower,
			bd.EworkLower, float64(s.Ework)/bd.EworkLower)
	}
	if *spyFlag {
		fmt.Println(envred.SpyASCII(g, p, 48))
	}
	if *out != "" {
		if err := writePerm(*out, p); err != nil {
			log.Fatal(err)
		}
		log.Printf("permutation written to %s", *out)
	}
}

// runRemote ships the loaded graph to an envorderd daemon through the
// typed client and reports the daemon's answer in the usual formats.
func runRemote(g *graph.Graph, name, baseURL, apiKey, method string, seed int64, budget time.Duration, stats string, spyFlag bool, out string) {
	opts := []client.Option{}
	if apiKey != "" {
		opts = append(opts, client.WithAPIKey(apiKey))
	}
	c := client.New(baseURL, opts...)
	res, err := c.Order(context.Background(), g, client.OrderRequest{
		Algorithm: method,
		Seed:      seed,
		Timeout:   budget,
	})
	if err != nil {
		var aerr *client.APIError
		if errors.As(err, &aerr) && aerr.BestSoFar {
			log.Fatalf("%v (rerun with a larger -budget, or accept the partial ordering programmatically via repro/client)", err)
		}
		log.Fatal(err)
	}
	p := res.Perm
	if err := p.Check(); err != nil {
		log.Fatalf("daemon returned an invalid permutation: %v", err)
	}
	s := envelope.Stats(res.Envelope)
	if strings.EqualFold(stats, "json") {
		if err := writeStatsJSON(os.Stdout, name+" (remote)", g, res.Algorithm,
			time.Duration(res.ElapsedMS*float64(time.Millisecond)), s, nil, nil, 0, nil, nil); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("matrix    : %s (n=%d, nnz=%d) via %s\n", name, g.N(), g.Nonzeros(), baseURL)
		fmt.Printf("algorithm : %s (%.3fs server-side, cached=%v)\n", res.Algorithm, res.ElapsedMS/1000, res.Cached)
		fmt.Printf("envelope  : %d\n", s.Esize)
		fmt.Printf("work Σr²  : %d\n", s.Ework)
		fmt.Printf("bandwidth : %d\n", s.Bandwidth)
		fmt.Printf("1-sum     : %d\n", s.OneSum)
		fmt.Printf("2-sum     : %d\n", s.TwoSum)
		fmt.Printf("max front : %d\n", s.MaxFrontwidth)
		if res.Solve != nil {
			fmt.Printf("solver    : %s (matvecs %d, spmv workers %d)\n",
				res.Solve.Scheme, res.Solve.MatVecs, res.Solve.Workers)
		}
		if spyFlag {
			fmt.Println(envred.SpyASCII(g, p, 48))
		}
	}
	if out != "" {
		if err := writePerm(out, p); err != nil {
			log.Fatal(err)
		}
		log.Printf("permutation written to %s", out)
	}
}

func loadGraph(mmFile, problem, grid string, scale float64, seed int64) (*graph.Graph, string) {
	switch {
	case mmFile != "":
		f, err := os.Open(mmFile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		g, err := envred.ReadMatrixMarket(f)
		if err != nil {
			log.Fatal(err)
		}
		return g, mmFile
	case problem != "":
		spec, ok := gen.ByName(problem)
		if !ok {
			log.Fatalf("unknown problem %q (try -list)", problem)
		}
		return spec.Generate(scale, seed).G, problem
	case grid != "":
		var w, h int
		if _, err := fmt.Sscanf(grid, "%dx%d", &w, &h); err != nil || w < 1 || h < 1 {
			log.Fatalf("bad -grid %q, want WxH", grid)
		}
		return graph.Grid(w, h), grid + " grid"
	default:
		log.Fatal("one of -mm, -problem or -grid is required (or -list)")
		return nil, ""
	}
}

// computeOrdering resolves the method against the ordering-service
// registry through a Session: auto/identity/random are driver specials,
// hybrid aliases SPECTRAL+SLOAN, and every other name — built-in or
// user-registered — dispatches via Session.OrderWeighted. A non-nil weight
// (-weighted, accepted only with -method spectral/weighted) selects the
// WEIGHTED algorithm. Unknown names list the valid ones.
func computeOrdering(g *graph.Graph, weight func(u, v int) float64, alg string, seed int64, parallel int, budget time.Duration, portfolio string, st *envred.CountedStore) (perm.Perm, *envred.SpectralInfo, *envred.AutoReport) {
	ctx := context.Background()
	opts := envred.SessionOptions{Seed: seed, Parallelism: parallel, Budget: budget}
	if st != nil {
		opts.Store = st
	}
	sess := envred.NewSession(opts)
	switch strings.ToLower(alg) {
	case "auto":
		opt := envred.AutoOptions{Seed: seed, Parallelism: parallel, Budget: budget}
		if portfolio != "" {
			for _, name := range strings.Split(portfolio, ",") {
				opt.Portfolio = append(opt.Portfolio, strings.TrimSpace(name))
			}
		}
		res, err := sess.AutoWith(ctx, g, opt)
		if err != nil {
			log.Fatal(err)
		}
		return res.Perm, nil, res.Report
	case "hybrid", "spectral-sloan":
		alg = envred.AlgSpectralSloan
	case "identity":
		return perm.Identity(g.N()), nil, nil
	case "random":
		return perm.Random(g.N(), seed), nil, nil
	}
	if weight != nil {
		alg = envred.AlgWeighted
	}
	if _, ok := envred.Lookup(alg); !ok {
		log.Fatalf("unknown algorithm %q (registered: %s; driver methods: auto, identity, random, hybrid)",
			alg, strings.Join(envred.Algorithms(), ", "))
	}
	res, err := sess.OrderWeighted(ctx, g, alg, weight)
	if err != nil {
		log.Fatal(err)
	}
	return res.Perm, res.Info, nil
}

// openStore opens the -store URL behind the default resilience layer: a
// flaky store degrades the run to cache-cold solving (warned by
// warnDegradedStore) instead of failing or stalling it. The caller closes
// the returned store, which closes the backend.
func openStore(url string) *envred.ResilientStore {
	st, err := envred.OpenStore(url)
	if err != nil {
		log.Fatalf("opening -store %s: %v", url, err)
	}
	return envred.NewResilientStore(st, envred.ResilienceOptions{})
}

// runStats is the -stats json document: one self-contained record per run,
// stable field names, suitable for jq-style post-processing and the CI
// artifacts.
type runStats struct {
	Matrix    string  `json:"matrix"`
	N         int     `json:"n"`
	Nonzeros  int     `json:"nonzeros"`
	Algorithm string  `json:"algorithm"`
	Seconds   float64 `json:"seconds"`
	// Eigensolves counts the eigensolves this process actually performed
	// during the run: 0 when every spectral artifact came from the -store
	// (or the method needed none), and 0 for -remote runs (the daemon did
	// the work).
	Eigensolves int64                `json:"eigensolves"`
	Store       *storeStatsJSON      `json:"store,omitempty"`
	Envelope    envelope.Stats       `json:"envelope"`
	Spectral    *envred.SpectralInfo `json:"spectral,omitempty"`
	Portfolio   *envred.AutoReport   `json:"portfolio,omitempty"`
}

// storeStatsJSON is the -store traffic record, stable snake_case names.
// The resilience fields report the fault-tolerance layer wrapped around
// every -store backend: breaker position and the retry/timeout/drop
// counters of this run.
type storeStatsJSON struct {
	Hits       int64  `json:"hits"`
	Misses     int64  `json:"misses"`
	Puts       int64  `json:"puts"`
	Errors     int64  `json:"errors"`
	Breaker    string `json:"breaker,omitempty"`
	Degraded   bool   `json:"degraded,omitempty"`
	Retries    int64  `json:"retries,omitempty"`
	Timeouts   int64  `json:"timeouts,omitempty"`
	PutDrops   int64  `json:"put_drops,omitempty"`
	Trips      int64  `json:"breaker_trips,omitempty"`
	Recoveries int64  `json:"breaker_recoveries,omitempty"`
}

// warnDegradedStore prints one stderr line when the -store backend
// misbehaved during the run: the ordering itself is unaffected (solves
// simply ran cold / writebacks were dropped), but the operator should
// know the persistent tier is not pulling its weight.
func warnDegradedStore(resil *envred.ResilientStore) {
	if resil == nil {
		return
	}
	rs := resil.Stats()
	if !rs.Degraded && rs.Trips == 0 && rs.Retries == 0 && rs.Timeouts == 0 && rs.PutDrops == 0 {
		return
	}
	log.Printf("warning: -store degraded (breaker=%s, retries=%d, timeouts=%d, dropped writes=%d, trips=%d; last error: %s) — results are unaffected, but artifacts may not persist",
		rs.State, rs.Retries, rs.Timeouts, rs.PutDrops, rs.Trips, rs.LastError)
}

func writeStatsJSON(w io.Writer, name string, g *graph.Graph, method string, elapsed time.Duration,
	s envelope.Stats, info *envred.SpectralInfo, report *envred.AutoReport, solves int64, counted *envred.CountedStore, resil *envred.ResilientStore) error {
	doc := runStats{
		Matrix:      name,
		N:           g.N(),
		Nonzeros:    g.Nonzeros(),
		Algorithm:   strings.ToUpper(method),
		Seconds:     elapsed.Seconds(),
		Eigensolves: solves,
		Envelope:    s,
		Spectral:    info,
		Portfolio:   report,
	}
	if counted != nil {
		st := counted.Stats()
		doc.Store = &storeStatsJSON{Hits: st.Hits, Misses: st.Misses, Puts: st.Puts, Errors: st.Errors}
		if resil != nil {
			rs := resil.Stats()
			doc.Store.Breaker = rs.State.String()
			doc.Store.Degraded = rs.Degraded
			doc.Store.Retries = rs.Retries
			doc.Store.Timeouts = rs.Timeouts
			doc.Store.PutDrops = rs.PutDrops
			doc.Store.Trips = rs.Trips
			doc.Store.Recoveries = rs.Recoveries
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func writePerm(path string, p perm.Perm) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, v := range p {
		fmt.Fprintln(w, v)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
