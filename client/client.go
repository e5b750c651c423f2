package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"

	"aimes"
	"aimes/internal/bufpool"
)

// Client talks to one aimes-server daemon on behalf of one tenant. It is
// safe for concurrent use. The zero value is not usable; construct with New.
type Client struct {
	base  string
	token string
	http  *http.Client
	tab   internTable
}

// New returns a client for the daemon at base (e.g. "http://127.0.0.1:9470")
// authenticating with the tenant's bearer token. The default http.Client is
// used; see WithHTTPClient to override (timeouts, transports).
func New(base, token string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), token: token, http: http.DefaultClient}
}

// WithHTTPClient returns a copy of c that issues requests through hc —
// note that SSE streams and long-polling waits outlive any hc.Timeout.
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	return &Client{base: c.base, token: c.token, http: hc}
}

// SubmitOptions mirrors the execution knobs of aimes.JobConfig for a remote
// submission.
type SubmitOptions struct {
	Config    aimes.StrategyConfig
	Strategy  *aimes.Strategy
	Adaptive  *aimes.AdaptiveConfig
	Placement aimes.Placement
	Shard     int
	Migrate   aimes.MigratePolicy
}

// Submit sends w to the daemon and returns the admitted job's info (its
// opaque ID is the handle for Wait/Events/Cancel). The workload is encoded
// in the middleware interchange format, compact, and the request around it,
// into one buffer, so the daemon executes exactly the tasks w describes. A
// quota rejection surfaces as a *StatusError with code 429.
func (c *Client) Submit(ctx context.Context, w *aimes.Workload, opts SubmitOptions) (*JobInfo, error) {
	req := opts.request()
	return c.submit(ctx, submitHead(w), &req)
}

// submitHead starts a submission of w with its document, appended first into
// a buffer sized by a bound whose slack holds the rest, then moved up behind
// the key.
func submitHead(w *aimes.Workload) []byte {
	doc := w.AppendMiddlewareJSON(nil)
	body := append(doc, workloadKey...)
	copy(body[len(workloadKey):], doc)
	copy(body, workloadKey)
	return body
}

// request is the wire form of a submission with these options, less its
// workload.
func (o SubmitOptions) request() SubmitRequest {
	return SubmitRequest{
		Config:    o.Config,
		Strategy:  o.Strategy,
		Adaptive:  o.Adaptive,
		Placement: PlacementString(o.Placement),
		Shard:     o.Shard,
		Migrate:   MigrateString(o.Migrate),
	}
}

// SubmitRaw sends a pre-built SubmitRequest (workload already in interchange
// JSON form) as json.Marshal writes it, the workload compacted and checked.
func (c *Client) SubmitRaw(ctx context.Context, req *SubmitRequest) (*JobInfo, error) {
	doc, err := json.Marshal(req.Workload)
	if err != nil {
		return nil, fmt.Errorf("client: encoding submit request: %w", err)
	}
	return c.submit(ctx, append([]byte(workloadKey), doc...), req)
}

// submit appends the rest of req to body, which holds its workload, and
// posts it.
func (c *Client) submit(ctx context.Context, body []byte, req *SubmitRequest) (*JobInfo, error) {
	w := wire{out: body}
	w.submission(req)
	return c.info(ctx, http.MethodPost, "/v1/jobs", w.out)
}

// Job fetches the current snapshot of one job.
func (c *Client) Job(ctx context.Context, id string) (*JobInfo, error) {
	return c.info(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil)
}

// List returns every job the tenant has submitted that the daemon still
// retains (live jobs plus recently finished ones), oldest first.
func (c *Client) List(ctx context.Context) ([]JobInfo, error) {
	buf := replies.Get()
	defer replies.Put(buf)
	var err error
	if *buf, err = c.do(ctx, http.MethodGet, "/v1/jobs", nil, *buf); err != nil {
		return nil, err
	}
	var jobs []JobInfo
	if err := json.Unmarshal(*buf, &jobs); err != nil {
		return nil, fmt.Errorf("client: decoding GET /v1/jobs response: %w", err)
	}
	return jobs, nil
}

// Cancel asks the daemon to cancel the job and returns its (possibly
// already final) snapshot. Cancellation is asynchronous on the daemon just
// as aimes.Job.Cancel is in-process; use Wait to observe the final state.
func (c *Client) Cancel(ctx context.Context, id, reason string) (*JobInfo, error) {
	path := "/v1/jobs/" + url.PathEscape(id)
	if reason != "" {
		path += "?reason=" + url.QueryEscape(reason)
	}
	return c.info(ctx, http.MethodDelete, path, nil)
}

// Wait blocks until the job reaches a final state and returns its report —
// the remote analogue of aimes.Job.Wait. A failed or canceled job returns a
// descriptive error. Wait long-polls, so it survives proxies and can be
// called afresh after a disconnect: any client that still has the job ID
// can reattach and collect the final report.
func (c *Client) Wait(ctx context.Context, id string) (*aimes.Report, error) {
	path := "/v1/jobs/" + url.PathEscape(id) + "?wait=30s"
	for {
		info, err := c.info(ctx, http.MethodGet, path, nil)
		if err != nil {
			return nil, err
		}
		if !info.Final {
			continue
		}
		if info.Error != "" {
			return info.Report, fmt.Errorf("client: job %s %s: %s", id, info.State, info.Error)
		}
		return info.Report, nil
	}
}

// Metrics scrapes the daemon's /metrics endpoint and returns the raw
// Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := c.request(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &StatusError{Code: resp.StatusCode, Message: strings.TrimSpace(string(b))}
	}
	return string(b), nil
}

// StatusError is a non-2xx response: Code is the HTTP status, Message the
// server's error string.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: HTTP %d: %s", e.Code, e.Message)
}

// IsQuotaError reports whether err is a 429 quota rejection.
func IsQuotaError(err error) bool {
	var se *StatusError
	return asStatusError(err, &se) && se.Code == http.StatusTooManyRequests
}

func asStatusError(err error, out **StatusError) bool {
	for err != nil {
		if se, ok := err.(*StatusError); ok {
			*out = se
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func (c *Client) request(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// replies lends the buffers replies are read into.
var replies bufpool.Pool

// info issues one request whose reply is a job snapshot. The reply is read
// into a pooled buffer, returned once decoded: the snapshot's strings are
// interned or copied, so nothing it holds aliases the buffer.
func (c *Client) info(ctx context.Context, method, path string, body []byte) (*JobInfo, error) {
	buf := replies.Get()
	defer replies.Put(buf)
	var err error
	if *buf, err = c.do(ctx, method, path, body, *buf); err != nil {
		return nil, err
	}
	info, err := c.tab.decodeInfo(*buf)
	if err != nil {
		return nil, fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return info, nil
}

// do issues one request and appends the body of a 2xx response, read whole,
// to buf. Non-2xx responses decode the ErrorBody and return a *StatusError.
func (c *Client) do(ctx context.Context, method, path string, body, buf []byte) ([]byte, error) {
	req, err := c.request(ctx, method, path, body)
	if err != nil {
		return buf, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return buf, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var eb ErrorBody
		if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
			return buf, &StatusError{Code: resp.StatusCode, Message: eb.Error}
		}
		return buf, &StatusError{Code: resp.StatusCode, Message: strings.TrimSpace(string(b))}
	}
	limit := math.MaxInt // to EOF; the transport reports a short body as io.ErrUnexpectedEOF
	if n := resp.ContentLength; n >= 0 {
		limit = int(n)
	}
	b, err := bufpool.Append(buf, resp.Body, limit)
	if err != nil {
		return b, fmt.Errorf("client: reading %s %s response: %w", method, path, err)
	}
	return b, nil
}
