package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"aimes"
	"aimes/internal/bufpool"
)

// Client talks to one aimes-server daemon on behalf of one tenant. It is
// safe for concurrent use. The zero value is not usable; construct with New.
type Client struct {
	base string
	auth []string // the Authorization header's value, built once; nil without a token
	http *http.Client
	tab  internTable

	// base plus each fixed path, built once: the submissions' and the
	// listing's URL, and the metrics'.
	jobsURL, metricsURL string

	mu     sync.Mutex
	parked parked // the latest Submit's event stream, until its job's Wait or Events claims it
}

// New returns a client for the daemon at base (e.g. "http://127.0.0.1:9470")
// authenticating with the tenant's bearer token. The default http.Client is
// used; see WithHTTPClient to override (timeouts, transports).
func New(base, token string) *Client {
	base = strings.TrimRight(base, "/")
	c := &Client{base: base, jobsURL: base + "/v1/jobs", metricsURL: base + "/metrics", http: http.DefaultClient}
	if token != "" {
		c.auth = []string{"Bearer " + token}
	}
	return c
}

// WithHTTPClient returns a copy of c that issues requests through hc —
// note that SSE streams and long-polling waits outlive any hc.Timeout. The
// copy holds no stream of c's submissions.
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	return &Client{base: c.base, jobsURL: c.jobsURL, metricsURL: c.metricsURL, auth: c.auth, http: hc}
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
//
// The daemon answers with the job's event stream, opened by the admission
// snapshot Submit returns. The Client holds the rest of that stream for the
// next Wait, or Events from the start, on this job, which then takes no
// request of its own. It holds one such stream, its latest Submit's: a later
// Submit closes it, and every other call makes its own request, as it would
// without one. Canceling ctx after Submit returned leaves the stream open;
// the claiming call's context governs it. SubmitRaw never holds a stream.
func (c *Client) Submit(ctx context.Context, w *aimes.Workload, opts SubmitOptions) (*JobInfo, error) {
	req := opts.request()
	body := wire{out: submitHead(w)}
	body.submission(&req)
	return c.submitStream(ctx, body.out)
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
	body := wire{out: append([]byte(workloadKey), doc...)}
	body.submission(req)
	return c.info(ctx, http.MethodPost, "/v1/jobs", body.out)
}

// submitStream posts a submission that asks for the job's event stream,
// decodes its opening "submitted" snapshot and parks the rest for the job's
// Wait or Events. A daemon that answers with the plain snapshot parks nothing.
// The request's context is derived once, and parked with the stream.
func (c *Client) submitStream(ctx context.Context, body []byte) (*JobInfo, error) {
	// The request outlives ctx once Submit has returned; until then ctx ends
	// it, when it can end.
	parent, canEnd := ctx, ctx.Done() != nil
	if canEnd {
		parent = context.WithoutCancel(ctx)
	}
	rctx, cancel := context.WithCancel(parent)
	var stop func() bool
	if canEnd {
		stop = context.AfterFunc(ctx, cancel)
	}
	info, p, err := c.postStream(rctx, body)
	if canEnd && !stop() && err != nil {
		if ue, ok := err.(*url.Error); ok {
			ue.Err = ctx.Err() // the cause, not the request's own cancellation
		}
	}
	if p.body == nil || rctx.Err() != nil { // nothing to park, or ctx ended it
		p.close()
		cancel()
		return info, err
	}
	p.id, p.ctx, p.cancel = info.ID, rctx, cancel
	c.mu.Lock()
	old := c.parked
	c.parked = p
	c.mu.Unlock()
	old.close()
	return info, nil
}

// postStream is submitStream's request. p holds the stream past the snapshot,
// or no body when the daemon answered plain JSON.
func (c *Client) postStream(ctx context.Context, body []byte) (info *JobInfo, p parked, err error) {
	const method, path = http.MethodPost, "/v1/jobs"
	req, err := c.request(ctx, method, path, body)
	if err != nil {
		return nil, p, err
	}
	req.Header["Accept"] = eventStreamType
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, p, err
	}
	if resp.StatusCode/100 != 2 || resp.Header.Get("Content-Type") != "text/event-stream" {
		defer resp.Body.Close()
		buf := replies.Get()
		defer replies.Put(buf)
		if *buf, err = readReply(resp, method, path, *buf); err != nil {
			return nil, p, err
		}
		info, err = c.decodeReply(*buf, method, path)
		return info, p, err
	}
	p = parked{body: resp.Body, in: lendReader(resp.Body)}
	ok, data, err := p.in.next("submitted")
	if err == nil && !ok {
		err = errors.New("the stream does not open with a submitted event")
	}
	if err == nil {
		info, err = c.tab.decodeInfo(data, "")
	}
	if err != nil {
		p.close()
		return nil, parked{}, fmt.Errorf("client: reading %s %s response: %w", method, path, err)
	}
	return info, p, nil
}

// parked is an open event stream: a submission's past its "submitted"
// snapshot, which the Client holds for the first Wait or Events on its job,
// or one an EventStream reads.
type parked struct {
	id     string
	body   io.ReadCloser // nil: nothing parked
	in     *lineReader   // reads body; lent by readers
	ctx    context.Context
	cancel context.CancelFunc // ends ctx, and with it the request
}

// close ends the stream and gives its reader back.
func (p *parked) close() {
	if p.body == nil {
		return
	}
	if p.cancel != nil {
		p.cancel()
	}
	p.body.Close()
	p.in.release()
}

// endWith makes the end of ctx the end of the stream's request, when ctx can
// end, and returns what detaches it again; nil when it cannot.
func (p *parked) endWith(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return nil
	}
	return context.AfterFunc(ctx, p.cancel)
}

// claim takes the parked stream if it is job id's.
func (c *Client) claim(id string) (parked, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.parked
	if p.body == nil || p.id != id {
		return parked{}, false
	}
	c.parked = parked{}
	return p, true
}

// waitStream reads p up to its "done" event and decodes that snapshot, no
// other event.
func (c *Client) waitStream(ctx context.Context, p *parked) (*JobInfo, error) {
	defer p.close()
	if stop := p.endWith(ctx); stop != nil {
		defer stop()
	}
	for {
		done, data, err := p.in.next("done")
		if err != nil {
			return nil, err
		}
		if done {
			p.in.drain()
			info, err := c.tab.decodeInfo(data, p.id)
			if err != nil {
				return nil, fmt.Errorf("client: bad done event %q: %w", data, err)
			}
			return info, nil
		}
	}
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
// descriptive error. Wait reads the job's stream when this Client's latest
// Submit holds it, and otherwise long-polls, so it survives proxies and can
// be called afresh after a disconnect: any client that still has the job ID
// can reattach and collect the final report.
func (c *Client) Wait(ctx context.Context, id string) (*aimes.Report, error) {
	if p, ok := c.claim(id); ok {
		info, err := c.waitStream(ctx, &p)
		if err == nil {
			return waitResult(id, info)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// The stream broke: long-poll instead.
	}
	path := "/v1/jobs/" + url.PathEscape(id) + "?wait=30s"
	for {
		info, err := c.info(ctx, http.MethodGet, path, nil)
		if err != nil {
			return nil, err
		}
		if info.Final {
			return waitResult(id, info)
		}
	}
}

// waitResult is Wait's answer from the job's final snapshot.
func waitResult(id string, info *JobInfo) (*aimes.Report, error) {
	if info.Error != "" {
		return info.Report, fmt.Errorf("client: job %s %s: %s", id, info.State, info.Error)
	}
	return info.Report, nil
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

// Header values shared by every request: a transport reads them, never
// writes them.
var (
	jsonType        = []string{"application/json"}
	eventStreamType = []string{"text/event-stream"}
)

// url is the URL of path on the daemon.
func (c *Client) url(path string) string {
	switch path {
	case "/v1/jobs":
		return c.jobsURL
	case "/metrics":
		return c.metricsURL
	}
	return c.base + path
}

func (c *Client) request(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return nil, err
	}
	if c.auth != nil {
		req.Header["Authorization"] = c.auth
	}
	if body != nil {
		req.Header["Content-Type"] = jsonType
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
	return c.decodeReply(*buf, method, path)
}

// decodeReply decodes a snapshot a request's reply carries.
func (c *Client) decodeReply(b []byte, method, path string) (*JobInfo, error) {
	info, err := c.tab.decodeInfo(b, "")
	if err != nil {
		return nil, fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return info, nil
}

// do issues one request and appends the body of a 2xx response, read whole,
// to buf.
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
	return readReply(resp, method, path, buf)
}

// readReply appends the body of a 2xx response, read whole, to buf.
// Non-2xx responses decode the ErrorBody and return a *StatusError.
func readReply(resp *http.Response, method, path string, buf []byte) ([]byte, error) {
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
