// Command envorderd serves envelope-reducing orderings over HTTP/JSON —
// the root package's Session API on the wire.
//
// Endpoints:
//
//	POST /v1/order              synchronous ordering
//	POST /v1/jobs               async job submit → id
//	GET  /v1/jobs/{id}          job status
//	GET  /v1/jobs/{id}/result   job result
//	GET  /v1/algorithms         registered algorithms
//	GET|POST /v1/fiedler        Fiedler vector + λ2
//	GET  /healthz               liveness (always 200 while serving)
//	GET  /readyz                readiness: store breaker state + counters
//	GET  /metrics               Prometheus text metrics
//
// Graphs are posted as raw Matrix Market bodies (algorithm, seed and
// timeout in the query string) or as JSON documents; see the README's
// "Running as a service" section for the wire format and curl examples.
//
// Authentication is off by default (open mode: all requests share one
// tenant). -api-keys KEY=TENANT[,KEY=TENANT...] turns it on: each tenant
// gets an independent Session artifact cache, graph cache and concurrency
// budget, and requests authenticate with "Authorization: Bearer KEY" or
// "X-API-Key: KEY".
//
// -store URL binds a persistent artifact store (fs:///path?max_bytes=N on
// disk, mem:// in process) shared by every tenant: eigensolves survive
// restarts, replicas pointed at one directory pool their solves, and
// /metrics grows envorderd_store_{hits,misses,errors,puts}_total plus the
// envorderd_store_seconds latency histogram. Store entries are
// content-addressed, so a restarted daemon answers repeat matrices with
// cached=true, solve.from_store=true and zero eigensolves.
//
// The store always runs behind a resilience layer: per-operation timeouts
// (-store-timeout), capped jittered retries for transient failures
// (-store-retries) and a circuit breaker (-store-breaker-threshold,
// -store-breaker-probe) that trips a failing backend out of the request
// path — the daemon keeps serving from its in-memory caches, /readyz
// reports "degraded", and the breaker half-opens to probe for recovery.
// The chaos:// store scheme (chaos://fs:///path?err_rate=0.2&seed=7)
// wraps any backend with deterministic fault injection for drills.
//
// With -addr ending in :0 the kernel picks a free port; the daemon prints
// the bound address and, with -ready-file, writes it to a file once the
// listener is accepting — the hook CI uses to start the daemon on a
// random port and point the integration tests at it.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener drains, queued
// and running jobs get -grace to finish, then anything still in flight is
// cancelled through the library's context path.
//
// Example:
//
//	envorderd -addr :8080
//	curl -s --data-binary @matrix.mtx 'localhost:8080/v1/order?algorithm=rcm' | jq .envelope
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	envred "repro"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("envorderd: ")
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 = kernel-assigned)")
		apiKeys   = flag.String("api-keys", "", "comma-separated KEY=TENANT pairs; empty = open mode (no auth, one shared tenant)")
		workers   = flag.Int("workers", 0, "solve pool size: max concurrent orderings (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "async job queue depth (0 = 256)")
		timeout   = flag.Duration("timeout", 0, "default per-request ordering timeout (0 = none)")
		maxBody   = flag.Int64("max-body", 0, "request body size cap in bytes (0 = 32 MiB)")
		cacheG    = flag.Int("cache-graphs", 0, "per-tenant graph/artifact cache capacity (0 = library default)")
		tenantCap = flag.Int("tenant-concurrency", 0, "per-tenant in-flight ordering budget (0 = 4x workers, -1 = unlimited)")
		seed      = flag.Int64("seed", 1, "default ordering seed")
		storeURL  = flag.String("store", "", "persistent artifact store URL (fs:///path?max_bytes=N, mem://); empty = in-memory caching only")
		storeTO   = flag.Duration("store-timeout", 0, "per-operation store timeout (0 = 2s, -1ns = none)")
		storeRet  = flag.Int("store-retries", 0, "store retries after a transient failure (0 = 2, -1 = none)")
		storeBrk  = flag.Int("store-breaker-threshold", 0, "consecutive store failures that trip the circuit breaker (0 = 5, -1 = never)")
		storePrb  = flag.Duration("store-breaker-probe", 0, "how long an open breaker waits before probing the store again (0 = 5s)")
		grace     = flag.Duration("grace", 30*time.Second, "graceful-shutdown drain budget for in-flight jobs")
		readyFile = flag.String("ready-file", "", "write the bound address to this file once listening")
		quiet     = flag.Bool("quiet", false, "suppress per-request logging")
	)
	flag.Parse()

	cfg := service.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		DefaultTimeout:    *timeout,
		MaxBodyBytes:      *maxBody,
		CacheGraphs:       *cacheG,
		TenantConcurrency: *tenantCap,
		Seed:              *seed,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	if *storeURL != "" {
		st, err := envred.OpenStore(*storeURL)
		if err != nil {
			log.Fatalf("opening -store %s: %v", *storeURL, err)
		}
		defer st.Close()
		// Every daemon store runs behind the resilience layer: a slow or
		// dead backend degrades to cache-only serving (breaker state on
		// /readyz and /metrics) instead of stalling request threads.
		cfg.Store = envred.NewResilientStore(st, envred.ResilienceOptions{
			OpTimeout:        *storeTO,
			Retries:          *storeRet,
			BreakerThreshold: *storeBrk,
			BreakerProbe:     *storePrb,
			Logf:             cfg.Logf,
		})
	}
	if *apiKeys != "" {
		cfg.APIKeys = map[string]string{}
		for _, pair := range strings.Split(*apiKeys, ",") {
			key, tenant, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || key == "" || tenant == "" {
				log.Fatalf("bad -api-keys entry %q (want KEY=TENANT)", pair)
			}
			cfg.APIKeys[key] = tenant
		}
	}

	svc := service.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	bound := ln.Addr().String()
	nWorkers := cfg.Workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	log.Printf("listening on %s (workers=%d, tenants=%s)", bound, nWorkers, tenantsDesc(cfg))
	if *readyFile != "" {
		// Write-then-rename so a watcher never reads a half-written file.
		tmp := *readyFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
		if err := os.Rename(tmp, *readyFile); err != nil {
			log.Fatal(err)
		}
	}

	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("%v: draining (grace %s)", sig, *grace)
	case err := <-errCh:
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Shutdown(ctx); err != nil {
		log.Printf("job drain: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	log.Printf("bye")
}

func tenantsDesc(cfg service.Config) string {
	if len(cfg.APIKeys) == 0 {
		return "open"
	}
	seen := map[string]bool{}
	for _, t := range cfg.APIKeys {
		seen[t] = true
	}
	return fmt.Sprintf("%d keyed", len(seen))
}
