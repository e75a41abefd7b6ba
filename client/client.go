package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	envred "repro"
	"repro/internal/retry"
)

// Client talks to an envorderd daemon. Create with New; zero-value
// Clients are not usable.
type Client struct {
	baseURL    string
	apiKey     string
	hc         *http.Client
	maxRetries int
	backoff    time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithAPIKey authenticates every request with the given API key
// (Authorization: Bearer).
func WithAPIKey(key string) Option { return func(c *Client) { c.apiKey = key } }

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets the retry budget for transient failures (network
// errors and retryable 5xx replies) and the base backoff. Delays use full
// jitter: each wait is uniform in [0, min(cap, base·2^attempt)), so a
// thundering herd of clients retries spread out instead of in lockstep.
// The default is 3 retries starting at 100ms.
func WithRetries(max int, base time.Duration) Option {
	return func(c *Client) {
		c.maxRetries = max
		c.backoff = base
	}
}

// New returns a Client for the daemon at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL:    strings.TrimRight(baseURL, "/"),
		hc:         &http.Client{},
		maxRetries: 3,
		backoff:    100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// OrderRequest parameterizes an ordering call.
type OrderRequest struct {
	// Algorithm is any name the daemon's registry knows (see Algorithms),
	// or "auto" for the portfolio engine. Empty = auto.
	Algorithm string
	// Seed fixes the run's randomness; 0 uses the server default.
	Seed int64
	// Timeout is the server-side ordering budget; expiry yields a 503
	// *APIError, possibly carrying a best-so-far permutation. 0 uses the
	// server default. (Client-side cancellation rides ctx.)
	Timeout time.Duration
}

// Envelope carries the envelope parameters of an ordering, as computed by
// the server.
type Envelope struct {
	Esize         int64 `json:"esize"`
	Ework         int64 `json:"ework"`
	Bandwidth     int   `json:"bandwidth"`
	OneSum        int64 `json:"one_sum"`
	TwoSum        int64 `json:"two_sum"`
	MaxFrontwidth int   `json:"max_frontwidth"`
}

// OrderResult is a finished ordering.
type OrderResult struct {
	Algorithm string      `json:"algorithm"`
	N         int         `json:"n"`
	Nonzeros  int         `json:"nonzeros"`
	Perm      envred.Perm `json:"perm"`
	Envelope  Envelope    `json:"envelope"`
	// Lambda2 and Solve report the eigensolver when one ran.
	Lambda2 float64            `json:"lambda2,omitempty"`
	Solve   *envred.SolveStats `json:"solve,omitempty"`
	// Winners and Eigensolves summarize auto portfolio runs.
	Winners     map[string]int `json:"winners,omitempty"`
	Eigensolves int            `json:"eigensolves,omitempty"`
	// Cached reports that the graph was already resident in the tenant
	// Session's cache, so its memoized artifacts applied, or that the
	// answer's solve record was read from the persistent store
	// (Solve.FromStore, e.g. after a restart). An algorithm without a
	// solve on a graph the tenant has not seen reports false.
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// FiedlerResult is the /v1/fiedler reply: the Fiedler vector, λ2 and the
// solver statistics. The graph must be one connected component of at
// least two vertices; any other graph is answered 400 with its component
// count.
type FiedlerResult struct {
	N       int                `json:"n"`
	Lambda2 float64            `json:"lambda2"`
	Vector  []float64          `json:"vector"`
	Solve   *envred.SolveStats `json:"solve,omitempty"`
	// Cached reports that the graph was already resident in the tenant
	// Session's cache, or that the solve record was read from the
	// persistent store (Solve.FromStore).
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// JobStatus is the async-job poll document.
type JobStatus struct {
	ID         string `json:"id"`
	Status     string `json:"status"` // queued | running | done | failed
	Algorithm  string `json:"algorithm"`
	N          int    `json:"n"`
	CreatedMS  int64  `json:"created_unix_ms"`
	StartedMS  int64  `json:"started_unix_ms,omitempty"`
	FinishedMS int64  `json:"finished_unix_ms,omitempty"`
	Error      string `json:"error,omitempty"`
}

// Terminal reports whether the job has finished (done or failed).
func (s *JobStatus) Terminal() bool { return s.Status == "done" || s.Status == "failed" }

// APIError is a non-2xx server reply.
type APIError struct {
	StatusCode int
	Message    string
	// BestSoFar is set on 503 timeout replies: true means the interrupted
	// run still produced a usable ordering, carried in Perm.
	BestSoFar bool
	Perm      envred.Perm
}

// Retryable reports whether the reply is worth retrying — the marker the
// shared transient-failure classifier (and so the Client's own retry
// loop) consults: gateway errors (502/504) and 503s that carry no final
// best-so-far answer are transient; a 503 with a best-so-far ordering is
// a final (partial) answer, and plain 500s are deterministic server-side
// failures that would just fail again.
func (e *APIError) Retryable() bool {
	switch e.StatusCode {
	case http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	case http.StatusServiceUnavailable:
		return !e.BestSoFar
	default:
		return false
	}
}

func (e *APIError) Error() string {
	if e.BestSoFar {
		return fmt.Sprintf("envorderd: %d %s (best-so-far ordering available)", e.StatusCode, e.Message)
	}
	return fmt.Sprintf("envorderd: %d %s", e.StatusCode, e.Message)
}

// Order computes an ordering of g synchronously. The graph is shipped as
// Matrix Market text.
func (c *Client) Order(ctx context.Context, g *envred.Graph, req OrderRequest) (*OrderResult, error) {
	body, err := graphBody(g)
	if err != nil {
		return nil, err
	}
	var out OrderResult
	if err := c.call(ctx, http.MethodPost, "/v1/order"+req.query(), "application/x-matrix-market", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// OrderMatrixMarket is Order with the matrix already in Matrix Market
// form (the bytes are posted as-is).
func (c *Client) OrderMatrixMarket(ctx context.Context, matrix []byte, req OrderRequest) (*OrderResult, error) {
	var out OrderResult
	if err := c.call(ctx, http.MethodPost, "/v1/order"+req.query(), "application/x-matrix-market", matrix, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Fiedler computes the Fiedler vector and λ2 of the connected graph g
// (see FiedlerResult).
func (c *Client) Fiedler(ctx context.Context, g *envred.Graph) (*FiedlerResult, error) {
	body, err := graphBody(g)
	if err != nil {
		return nil, err
	}
	var out FiedlerResult
	if err := c.call(ctx, http.MethodPost, "/v1/fiedler", "application/x-matrix-market", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Algorithms lists the algorithm names the daemon accepts.
func (c *Client) Algorithms(ctx context.Context) ([]string, error) {
	var out struct {
		Algorithms []string `json:"algorithms"`
	}
	if err := c.call(ctx, http.MethodGet, "/v1/algorithms", "", nil, &out); err != nil {
		return nil, err
	}
	return out.Algorithms, nil
}

// SubmitJob enqueues an async ordering of g and returns the job id.
func (c *Client) SubmitJob(ctx context.Context, g *envred.Graph, req OrderRequest) (string, error) {
	body, err := graphBody(g)
	if err != nil {
		return "", err
	}
	var out JobStatus
	if err := c.call(ctx, http.MethodPost, "/v1/jobs"+req.query(), "application/x-matrix-market", body, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// JobStatus polls an async job.
func (c *Client) JobStatus(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if err := c.call(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// JobResult fetches a finished job's ordering. A job that is still
// queued or running returns ErrJobNotReady; a failed job returns its
// failure as an *APIError.
func (c *Client) JobResult(ctx context.Context, id string) (*OrderResult, error) {
	path := "/v1/jobs/" + url.PathEscape(id) + "/result"
	resp, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return nil, ErrJobNotReady
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiErrorOf(resp)
	}
	var out OrderResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decoding %s: %w", path, err)
	}
	return &out, nil
}

// ErrJobNotReady is JobResult's reply for a job that has not finished.
var ErrJobNotReady = fmt.Errorf("client: job not finished yet")

// WaitJob polls an async job every poll interval until it finishes (or
// ctx expires), then fetches the result.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*OrderResult, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.JobStatus(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.Terminal() {
			return c.JobResult(ctx, id)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

// Health checks the daemon's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	var out struct {
		Status string `json:"status"`
	}
	if err := c.call(ctx, http.MethodGet, "/healthz", "", nil, &out); err != nil {
		return err
	}
	if out.Status != "ok" {
		return fmt.Errorf("client: daemon reports status %q", out.Status)
	}
	return nil
}

// Metrics fetches the daemon's Prometheus text exposition verbatim.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", apiErrorOf(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// Internals -------------------------------------------------------------------

func (r OrderRequest) query() string {
	q := url.Values{}
	if r.Algorithm != "" {
		q.Set("algorithm", r.Algorithm)
	}
	if r.Seed != 0 {
		q.Set("seed", fmt.Sprint(r.Seed))
	}
	if r.Timeout > 0 {
		q.Set("timeout", r.Timeout.String())
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

func graphBody(g *envred.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := envred.WriteMatrixMarket(&buf, g); err != nil {
		return nil, fmt.Errorf("client: encoding graph: %w", err)
	}
	return buf.Bytes(), nil
}

// call runs one JSON API exchange, decoding a 2xx body into out.
func (c *Client) call(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	resp, err := c.do(ctx, method, path, contentType, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return apiErrorOf(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s: %w", path, err)
	}
	return nil
}

// do performs one HTTP exchange with the retry/backoff policy: network
// errors and retryable 5xx replies (502/504, and 503s that do not carry a
// final best-so-far answer) are retried up to the budget with full-jitter
// backoff (see WithRetries); bodies are byte slices, so every attempt
// replays cleanly. The waits are deadline-aware: a ctx whose deadline
// cannot outlive the next backoff fails now with the last real error
// instead of sleeping into it, and cancellation interrupts a wait
// immediately.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) (*http.Response, error) {
	pol := retry.Policy{Base: c.backoff}
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if c.apiKey != "" {
			req.Header.Set("Authorization", "Bearer "+c.apiKey)
		}
		resp, err := c.hc.Do(req)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				// The caller gave up; don't dress cancellation as a failure.
				return nil, ctx.Err()
			}
			lastErr = err // network errors are transient by construction
		case resp.StatusCode >= 500:
			aerr := apiErrorOf(resp) // drains and closes the body
			if !retry.Transient(aerr) {
				return nil, aerr
			}
			lastErr = aerr
		default:
			return resp, nil
		}
		if attempt >= c.maxRetries {
			return nil, fmt.Errorf("client: %s %s failed after %d attempt(s): %w", method, path, attempt+1, lastErr)
		}
		if err := retry.Sleep(ctx, pol.Delay(attempt)); err != nil {
			return nil, fmt.Errorf("client: %s %s: %w (last failure: %v)", method, path, err, lastErr)
		}
	}
}

// apiErrorOf decodes a non-2xx reply into *APIError, draining the body.
func apiErrorOf(resp *http.Response) *APIError {
	defer resp.Body.Close()
	e := &APIError{StatusCode: resp.StatusCode}
	var doc struct {
		Error     string      `json:"error"`
		BestSoFar *bool       `json:"best_so_far"`
		Perm      envred.Perm `json:"perm"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err := json.Unmarshal(raw, &doc); err == nil && doc.Error != "" {
		e.Message = doc.Error
		e.BestSoFar = doc.BestSoFar != nil && *doc.BestSoFar
		e.Perm = doc.Perm
	} else {
		e.Message = strings.TrimSpace(string(raw))
		if e.Message == "" {
			e.Message = resp.Status
		}
	}
	return e
}
