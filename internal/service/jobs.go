package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync"
	"time"

	"repro/client"
	"repro/internal/pipeline"
)

// Job states, as reported by GET /v1/jobs/{id}.
const (
	jobQueued  = "queued"
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// job is one async ordering: submitted via POST /v1/jobs, executed on the
// worker pool, polled until terminal.
type job struct {
	id     string
	tenant *tenant
	req    *request
	// n is the vertex count for status documents, copied at submission
	// because the worker re-points req's graph at the interned instance.
	n       int
	created time.Time

	mu       sync.Mutex
	state    string
	started  time.Time
	finished time.Time
	resp     *client.OrderResult
	fail     *apiError
}

// status snapshots the poll document under the job's lock.
func (j *job) status() client.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	doc := client.JobStatus{
		ID:        j.id,
		Status:    j.state,
		Algorithm: j.req.algorithm,
		N:         j.n,
		CreatedMS: j.created.UnixMilli(),
	}
	if !j.started.IsZero() {
		doc.StartedMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		doc.FinishedMS = j.finished.UnixMilli()
	}
	if j.fail != nil {
		doc.Error = j.fail.Message
	}
	return doc
}

// jobStore indexes jobs by id and evicts the oldest finished jobs beyond
// the retention bound (queued/running jobs are never evicted).
type jobStore struct {
	mu          sync.Mutex
	byID        map[string]*job
	finished    []string // eviction order
	maxRetained int
}

func newJobStore(maxRetained int) *jobStore {
	return &jobStore{byID: map[string]*job{}, maxRetained: maxRetained}
}

func (st *jobStore) add(j *job) {
	st.mu.Lock()
	st.byID[j.id] = j
	st.mu.Unlock()
}

// get returns the job only when it belongs to tnt: jobs are invisible
// across tenants (404, not 403, to avoid leaking job-id existence).
func (st *jobStore) get(id string, tnt *tenant) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.byID[id]
	if !ok || j.tenant != tnt {
		return nil, false
	}
	return j, true
}

func (st *jobStore) markFinished(j *job) {
	st.mu.Lock()
	st.finished = append(st.finished, j.id)
	for len(st.finished) > st.maxRetained {
		delete(st.byID, st.finished[0])
		st.finished = st.finished[1:]
	}
	st.mu.Unlock()
}

func (st *jobStore) running() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, j := range st.byID {
		j.mu.Lock()
		if j.state == jobRunning || j.state == jobQueued {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

func newJobID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// submitJob enqueues a job, failing fast when the service is shutting
// down or the queue is full.
func (s *Server) submitJob(j *job) *apiError {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	if s.closed {
		return &apiError{Status: http.StatusServiceUnavailable, Message: "service is shutting down"}
	}
	select {
	case s.jobCh <- j:
		s.jobs.add(j)
		s.m.jobsQueued.add(1)
		return nil
	default:
		return &apiError{Status: http.StatusServiceUnavailable, Message: "job queue is full"}
	}
}

// runJob executes one job's ordering with panic isolation: a panic
// anywhere in the request path (the orderer call itself is already
// guarded inside the Session) fails this job with a *pipeline.PanicError
// instead of killing the drainer goroutine — the worker pool outlives any
// misbehaving registered algorithm.
func (s *Server) runJob(ctx context.Context, j *job) (resp *client.OrderResult, fail *apiError) {
	defer func() {
		if p := recover(); p != nil {
			err := pipeline.Recovered("job "+j.id, p)
			s.logf("job %s panicked: %v", j.id, err)
			resp, fail = nil, &apiError{Status: http.StatusInternalServerError, Message: err.Error()}
		}
	}()
	return s.runOrder(ctx, j.tenant, j.req)
}

// jobWorker drains the job queue until Shutdown closes it. Each job runs
// under the server's base context (forced shutdown cancels it) plus the
// job's own timeout; the ordering itself is bounded by the shared solve
// pool inside runOrder.
func (s *Server) jobWorker() {
	defer s.workerWG.Done()
	for j := range s.jobCh {
		s.m.jobsQueued.add(-1)
		j.mu.Lock()
		j.state = jobRunning
		j.started = time.Now()
		j.mu.Unlock()

		ctx, cancel := j.req.withTimeout(s.baseCtx)
		resp, fail := s.runJob(ctx, j)
		cancel()

		j.mu.Lock()
		j.finished = time.Now()
		if fail != nil {
			j.state = jobFailed
			j.fail = fail
			s.m.jobs.inc(jobFailed)
		} else {
			j.state = jobDone
			j.resp = resp
			s.m.jobs.inc(jobDone)
		}
		j.mu.Unlock()
		s.jobs.markFinished(j)
		s.logf("job %s finished state=%s tenant=%s algorithm=%s n=%d", j.id, j.state, j.tenant.name, j.req.algorithm, j.n)
	}
}
