// Package service implements the envorderd ordering daemon: the Session
// API of the root package served over HTTP/JSON.
//
// Endpoints (all JSON unless noted):
//
//	POST /v1/order              synchronous ordering (graph in body)
//	POST /v1/order/batch        many graphs, one algorithm, one round trip
//	POST /v1/jobs               submit an async ordering job → job id
//	GET  /v1/jobs/{id}          poll job status
//	GET  /v1/jobs/{id}/result   fetch the finished job's ordering
//	GET  /v1/algorithms         registered algorithm names
//	GET|POST /v1/fiedler        Fiedler vector + λ2 of a connected graph (400 otherwise)
//	GET  /healthz               liveness (always 200 while the process serves)
//	GET  /readyz                readiness: store breaker state and counters
//	GET  /metrics               Prometheus text exposition
//
// Every ordering endpoint (order, batch, jobs, fiedler) takes one request
// path: decodeRequest reads the body and query, admit queues for the
// tenant and solve-pool slots and interns the graphs, and replies are the
// client package's exported types. Graphs arrive either as a Matrix Market
// body (any non-JSON content type) or as a JSON document carrying an
// adjacency list, inline Matrix Market text, or batch items; algorithm,
// seed, timeout and workers come from the query wherever the body leaves
// them zero. See decodeRequest for the exact wire format and its limits.
//
// A Server multiplexes any number of tenants: in open mode (no API keys
// configured) every request shares one tenant; with Config.APIKeys set,
// requests authenticate with Authorization: Bearer or X-API-Key and each
// tenant owns an independent Session and an independent concurrency
// budget, so one tenant's burst cannot evict another's cached eigensolves
// or starve its slots. The tenant Session's LRU cache is the only record
// of which graphs are resident: admission interns each request graph by
// content into it (Session.Intern), so a repeat resolves to the resident
// instance whose artifacts apply. A reply's cached flag reads what the
// Session did: the graph was resident, or its solve record came from the
// persistent store (solve.from_store).
//
// Actual compute is bounded by one global solve pool shared with the async
// job workers; request timeouts ride the library's context cancellation
// path, so a deadline that expires mid-eigensolve still yields the
// best-so-far fallback ordering (HTTP 503, best_so_far=true).
package service

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	envred "repro"
)

// Config parameterizes a Server. The zero value is a usable open-mode
// daemon with defaults noted on each field.
type Config struct {
	// APIKeys maps API key → tenant name. Empty means open mode: no
	// authentication, one shared tenant. Several keys may share a tenant
	// name (they share its Session, cache and budget).
	APIKeys map[string]string
	// Workers bounds the solve pool: at most this many orderings execute
	// concurrently (sync requests and async jobs combined), each reusing
	// the library's pooled pipeline workspaces. 0 = GOMAXPROCS.
	Workers int
	// QueueDepth bounds the async job queue; submissions beyond it are
	// rejected with 503. 0 = 256.
	QueueDepth int
	// MaxJobsRetained bounds finished jobs kept for result polling;
	// oldest finished jobs are evicted first. 0 = 1024.
	MaxJobsRetained int
	// MaxBodyBytes caps request bodies; larger requests get 413.
	// 0 = 32 MiB.
	MaxBodyBytes int64
	// DefaultTimeout applies to orderings whose request carries no
	// explicit timeout. 0 = no server-side timeout.
	DefaultTimeout time.Duration
	// CacheGraphs sizes each tenant's Session cache: one LRU over the
	// resident graphs, holding their content keys and memoized artifacts.
	// 0 = envred.DefaultCacheGraphs.
	CacheGraphs int
	// TenantConcurrency bounds each tenant's in-flight orderings (they
	// queue, honoring the request context, rather than fail). 0 = 4×the
	// solve pool, < 0 = unlimited.
	TenantConcurrency int
	// Seed is the default ordering seed when a request carries none.
	Seed int64
	// Store, when non-nil, is the persistent artifact store every tenant
	// Session shares (entries are content-addressed, so cross-tenant reuse
	// can never leak one tenant's results into another's — equal content is
	// equal artifacts). The daemon wraps it with traffic counters surfaced
	// as envorderd_store_* metrics. The caller owns the store: open it
	// before New (see envred.OpenStore) and close it after Shutdown.
	Store envred.Store
	// Logf, when non-nil, receives one line per request and lifecycle
	// event (log.Printf-compatible).
	Logf func(format string, args ...any)
}

func (c *Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c *Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 256
}

func (c *Config) maxJobsRetained() int {
	if c.MaxJobsRetained > 0 {
		return c.MaxJobsRetained
	}
	return 1024
}

func (c *Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return 32 << 20
}

func (c *Config) cacheGraphs() int {
	if c.CacheGraphs > 0 {
		return c.CacheGraphs
	}
	return envred.DefaultCacheGraphs
}

// tenant is one isolated consumer of the service: its own Session, whose
// LRU cache interns the tenant's graphs and memoizes their artifacts, and
// its own concurrency budget.
type tenant struct {
	name    string
	sess    *envred.Session
	sem     chan struct{} // nil = unlimited
	started time.Time
}

// Server is the ordering service. Create with New, expose via Handler
// (behind any net/http server), and stop with Shutdown.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	m     *metrics
	start time.Time

	// solveSem is the global bounded solve pool.
	solveSem chan struct{}

	// store is the counted persistent-store handle tenant Sessions solve
	// through (nil without Config.Store). resilient is the fault-tolerance
	// handle found in the store's wrapper chain (nil when the store is not
	// wrapped in a ResilientStore): /readyz and the breaker metrics read
	// its state at render time.
	store     *envred.CountedStore
	resilient *envred.ResilientStore

	tenantMu sync.Mutex
	byName   map[string]*tenant
	byKey    map[string]*tenant
	open     *tenant // open-mode tenant; nil when APIKeys are configured

	jobs *jobStore

	// lifecycle: baseCtx cancels running work on forced shutdown; jobMu
	// guards the closed → jobCh transition so submits never race close.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	jobMu      sync.Mutex
	closed     bool
	jobCh      chan *job
	workerWG   sync.WaitGroup
}

// New builds a Server and starts its job workers.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		m:        newMetrics(),
		start:    time.Now(),
		solveSem: make(chan struct{}, cfg.workers()),
		byName:   map[string]*tenant{},
		byKey:    map[string]*tenant{},
		jobs:     newJobStore(cfg.maxJobsRetained()),
		jobCh:    make(chan *job, cfg.queueDepth()),
	}
	//envlint:ignore ctxflow the daemon owns its lifetime; Shutdown cancels this base context
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.Store != nil {
		s.store = envred.NewCountedStore(cfg.Store, func(_ string, seconds float64) {
			s.m.storeSeconds.observe(seconds)
		})
		s.m.store = s.store
		s.resilient = resilienceOf(cfg.Store)
		s.m.resilient = s.resilient
	}
	if len(cfg.APIKeys) == 0 {
		s.open = s.newTenant("default")
	} else {
		for key, name := range cfg.APIKeys {
			tnt, ok := s.byName[name]
			if !ok {
				tnt = s.newTenant(name)
				s.byName[name] = tnt
			}
			s.byKey[key] = tnt
		}
	}
	s.routes()
	for i := 0; i < cfg.workers(); i++ {
		s.workerWG.Add(1)
		go s.jobWorker()
	}
	return s
}

func (s *Server) newTenant(name string) *tenant {
	opts := envred.SessionOptions{Seed: s.cfg.Seed, CacheGraphs: s.cfg.cacheGraphs()}
	if s.store != nil {
		opts.Store = s.store
	}
	t := &tenant{
		name:    name,
		sess:    envred.NewSession(opts),
		started: time.Now(),
	}
	budget := s.cfg.TenantConcurrency
	if budget == 0 {
		budget = 4 * s.cfg.workers()
	}
	if budget > 0 {
		t.sem = make(chan struct{}, budget)
	}
	return t
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/order", s.auth(s.handleOrder))
	s.mux.HandleFunc("POST /v1/order/batch", s.auth(s.handleOrderBatch))
	s.mux.HandleFunc("POST /v1/jobs", s.auth(s.handleJobSubmit))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.auth(s.handleJobStatus))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.auth(s.handleJobResult))
	s.mux.HandleFunc("GET /v1/algorithms", s.auth(s.handleAlgorithms))
	s.mux.HandleFunc("GET /v1/fiedler", s.auth(s.handleFiedler))
	s.mux.HandleFunc("POST /v1/fiedler", s.auth(s.handleFiedler))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// resilienceOf walks the store's Unwrap chain for the ResilientStore
// handle, so the daemon finds it whether the store arrived as the wrapper
// itself or further wrapped.
func resilienceOf(st envred.Store) *envred.ResilientStore {
	for st != nil {
		if r, ok := st.(*envred.ResilientStore); ok {
			return r
		}
		u, ok := st.(interface{ Unwrap() envred.Store })
		if !ok {
			return nil
		}
		st = u.Unwrap()
	}
	return nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// auth resolves the request's tenant and rejects unauthenticated requests
// when API keys are configured. The tenant rides to handlers via the
// request context.
func (s *Server) auth(h func(http.ResponseWriter, *http.Request, *tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tnt := s.open
		if tnt == nil {
			key := r.Header.Get("X-API-Key")
			if key == "" {
				if auth := r.Header.Get("Authorization"); len(auth) > 7 && auth[:7] == "Bearer " {
					key = auth[7:]
				}
			}
			if key == "" {
				writeError(w, &apiError{Status: http.StatusUnauthorized, Message: "missing API key (use Authorization: Bearer <key> or X-API-Key)"})
				return
			}
			var ok bool
			s.tenantMu.Lock()
			tnt, ok = s.byKey[key]
			s.tenantMu.Unlock()
			if !ok {
				writeError(w, &apiError{Status: http.StatusUnauthorized, Message: "unknown API key"})
				return
			}
		}
		h(w, r, tnt)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Shutdown drains the service: no new jobs are accepted, queued and
// running jobs are given until ctx expires to finish, then any still
// running are cancelled through their contexts (their orderings return
// best-so-far fallbacks internally and the jobs record the cancellation).
// The HTTP listener is owned by the caller and should be shut down first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.jobMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.jobCh)
	}
	s.jobMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // force: cancel in-flight work, then wait it out
		<-done
		return fmt.Errorf("service: shutdown grace expired, %d job(s) cancelled: %w", s.jobs.running(), ctx.Err())
	}
}
