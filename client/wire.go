// Package client is the thin Go client for the aimes-server HTTP+SSE job
// API (internal/server, cmd/aimes-server): submit workloads, wait for
// reports, cancel, list, and stream live job events as Server-Sent Events —
// against a long-lived daemon owning one sharded aimes.Environment.
//
// This file is the wire vocabulary shared by both sides: the server decodes
// SubmitRequest and encodes JobInfo / Event / ErrorBody, so the Go client
// and any curl-speaking client see the same JSON.
package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"time"

	"aimes"
	"aimes/internal/skeleton"
)

// SubmitRequest is the body of POST /v1/jobs. The workload travels in the
// middleware interchange format (Workload.WriteMiddlewareJSON /
// aimes.ParseWorkloadJSON), so a workload generated anywhere executes
// identically on the daemon: both sides parse the same bytes, which is what
// makes HTTP-submitted reports DeepEqual to in-process ones.
type SubmitRequest struct {
	// Workload is the middleware interchange JSON ({"name":..., "stages":
	// [...], "tasks": [...]}).
	Workload json.RawMessage `json:"workload"`
	// Config derives the execution strategy on the daemon (ignored when
	// Strategy is set). Fields marshal under their Go names (Binding,
	// Scheduler, Pilots, ...).
	Config aimes.StrategyConfig `json:"config"`
	// Strategy, when non-nil, skips derivation and enacts as given.
	Strategy *aimes.Strategy `json:"strategy,omitempty"`
	// Adaptive, when non-nil, enables runtime adaptation.
	Adaptive *aimes.AdaptiveConfig `json:"adaptive,omitempty"`

	// Placement is "", "round-robin", "least-loaded", "pinned" or "predictive".
	Placement string `json:"placement,omitempty"`
	// Shard is the target shard for pinned placement.
	Shard int `json:"shard,omitempty"`
	// Migrate is "", "auto", "allow" or "never".
	Migrate string `json:"migrate,omitempty"`
}

// JobInfo is the server's snapshot of one job: returned by submit, get,
// list and cancel, and carried by the terminal "done" SSE event.
type JobInfo struct {
	ID          string    `json:"id"` // opaque job ID, e.g. "j-2f9c..."
	Tenant      string    `json:"tenant"`
	State       string    `json:"state"` // pending|queued|running|done|failed|canceled
	Final       bool      `json:"final"` // true once State is terminal
	Shard       int       `json:"shard"`
	Namespace   string    `json:"namespace,omitempty"` // pilot-ID namespace once enacted
	Migrated    bool      `json:"migrated,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	// Error is the job's failure/cancellation cause (Final && State !=
	// "done" only).
	Error string `json:"error,omitempty"`
	// Report is the final execution report (Final && State == "done" only).
	Report *aimes.Report `json:"report,omitempty"`
	// EventsDropped counts the job's events that readers on the daemon found
	// already evicted from the shard's trace log (aimes.Job.EventsDropped): 0
	// unless the job is older than the shard's most recent 2^20 records.
	EventsDropped int64 `json:"events_dropped,omitempty"`
}

// Event is one job state transition on the wire — a job's aimes.Event, or
// an environment-wide trace record on the /v1/events stream (Seq 0, Job "").
type Event struct {
	// Seq is the event's 1-based position in the job's trace, the same on
	// every read; reconnecting clients resume with ?from=Seq+1 (or the
	// Last-Event-ID header).
	Seq    int64         `json:"seq,omitempty"`
	Job    string        `json:"job,omitempty"` // opaque job ID
	Time   time.Duration `json:"time"`          // simulation/wall offset, ns
	Entity string        `json:"entity"`
	State  string        `json:"state"`
	Detail string        `json:"detail,omitempty"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
}

// Dropped is the payload of an SSE "dropped" event: the cumulative count of
// events the daemon's trace log — the one store every stream reads — had
// evicted before this stream reached them.
type Dropped struct {
	Count int64 `json:"count"`
}

// PlacementString converts a placement policy to its wire form.
func PlacementString(p aimes.Placement) string { return p.String() }

// ParsePlacement converts the wire form back to a placement policy. The
// empty string is round-robin, matching aimes.JobConfig's zero value.
func ParsePlacement(s string) (aimes.Placement, error) {
	switch s {
	case "", "round-robin":
		return aimes.PlaceRoundRobin, nil
	case "least-loaded":
		return aimes.PlaceLeastLoaded, nil
	case "pinned":
		return aimes.PlacePinned, nil
	case "predictive":
		return aimes.PlacePredictive, nil
	}
	return 0, fmt.Errorf("unknown placement %q (want round-robin, least-loaded, pinned or predictive)", s)
}

// MigrateString converts a migration policy to its wire form.
func MigrateString(m aimes.MigratePolicy) string {
	switch m {
	case aimes.MigrateAuto:
		return "auto"
	case aimes.MigrateAllow:
		return "allow"
	case aimes.MigrateNever:
		return "never"
	}
	return fmt.Sprintf("migrate(%d)", int(m))
}

// ParseMigrate converts the wire form back to a migration policy. The empty
// string is MigrateAuto, matching aimes.JobConfig's zero value.
func ParseMigrate(s string) (aimes.MigratePolicy, error) {
	switch s {
	case "", "auto":
		return aimes.MigrateAuto, nil
	case "allow":
		return aimes.MigrateAllow, nil
	case "never":
		return aimes.MigrateNever, nil
	}
	return 0, fmt.Errorf("unknown migrate policy %q (want auto, allow or never)", s)
}

// workloadKey opens a submission: json.Marshal writes Workload first.
const workloadKey = `{"workload":`

// A wire walks a per-job body — submission, job snapshot, SSE event — field by
// field, in json.Marshal's order and keys, and appends each to out (err: a
// value json.Marshal refuses) or, when read, reads each from in, stopping
// (ok false) at the first bytes outside that form: one description serves
// both directions, and encoding/json reads any other form and is the tests'
// reference for both. Strings that repeat across a Client's jobs are read
// into its table, tab, whose lock the caller holds; tab nil copies them.
type wire struct {
	out []byte
	err error

	read bool
	ok   bool
	in   skeleton.JSONReader
	tab  *internTable
}

func reader(b []byte, tab *internTable) wire {
	return wire{read: true, ok: true, in: skeleton.NewJSONReader(b), tab: tab}
}

// lit is punctuation, or the key of a field every body has.
func (w *wire) lit(s string) {
	if w.read {
		w.ok = w.ok && w.in.Lit(s)
	} else {
		w.out = append(w.out, s...)
	}
}

// has is the key of a field json omits when empty (set false), if written or read.
func (w *wire) has(key string, set bool) bool {
	if w.read {
		return w.ok && w.in.Lit(key)
	}
	if set {
		w.out = append(w.out, key...)
	}
	return set
}

// ptr is the key of a field json omits when nil, read into a new value.
func ptr[T any](w *wire, key string, p **T) bool {
	if !w.has(key, *p != nil) {
		return false
	}
	if w.read {
		*p = new(T)
	}
	return true
}

// num is an integer of any kind json writes as a number.
func num[T ~int | ~int64](w *wire, key string, p *T) {
	switch w.lit(key); {
	case !w.read:
		w.out = strconv.AppendInt(w.out, int64(*p), 10)
	case w.ok:
		w.ok = skeleton.ReadInt(&w.in, p)
	}
}

func (w *wire) bool(key string, p *bool) {
	switch w.lit(key); {
	case !w.read:
		w.out = strconv.AppendBool(w.out, *p)
	case w.ok:
		*p = w.in.Lit("true")
		w.ok = *p || w.in.Lit("false")
	}
}

func (w *wire) float(key string, p *float64) {
	switch w.lit(key); {
	case w.read:
		w.ok = w.ok && w.in.Float(p)
	case math.IsNaN(*p) || math.IsInf(*p, 0):
		w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(*p, 'g', -1, 64)}
	default:
		w.out = skeleton.AppendJSONFloat(w.out, *p)
	}
}

// str is a string; one that repeats across jobs is read into the table.
func (w *wire) str(key string, p *string, repeats bool) {
	switch w.lit(key); {
	case !w.read:
		w.out = skeleton.AppendJSONString(w.out, *p)
	case w.ok:
		var raw []byte
		if raw, w.ok = w.in.Str(); repeats && w.tab != nil {
			*p = w.tab.intern(raw)
		} else {
			*p = string(raw)
		}
	}
}

// optStr is a string json omits when empty.
func (w *wire) optStr(key string, p *string, repeats bool) {
	if w.has(key, *p != "") {
		w.str("", p, repeats)
	}
}

// strs is a list of strings that repeat across jobs: resource names.
func (w *wire) strs(key string, p *[]string) {
	switch w.lit(key); {
	case !w.read:
		w.out = skeleton.AppendJSONStrings(w.out, *p)
	case !w.ok || w.in.Lit("null"):
	case w.in.Lit("[]"):
		*p = []string{}
	default:
		var buf [8]string
		list := buf[:0]
		w.ok = w.in.List(func() bool {
			list = append(list, "")
			w.str("", &list[len(list)-1], true)
			return w.ok
		})
		*p = append(make([]string, 0, len(list)), list...)
	}
}

// time is written as time.Time.MarshalJSON writes it, failing where it fails
// (a year not of four digits, a zone offset of a day or more), and read by it.
func (w *wire) time(key string, p *time.Time) {
	switch w.lit(key); {
	case !w.read:
		start := len(w.out) + 1
		w.out = p.AppendFormat(append(w.out, '"'), time.RFC3339Nano)
		if b, n := w.out, len(w.out); b[start+4] != '-' ||
			b[n-1] != 'Z' && ('0' <= b[n-6] && b[n-6] <= '9' || string(b[n-5:n-3]) >= "24") {
			w.err = fmt.Errorf("client: time %v has no RFC 3339 form", *p)
		}
		w.out = append(w.out, '"')
	case w.ok:
		quoted := w.in.Rest()
		raw, ok := w.in.Str()
		w.ok = ok && p.UnmarshalJSON(quoted[:len(raw)+2]) == nil
	}
}

// walkMap is a map as json writes one — null when nil, keys in byte order —
// and reads one; its keys repeat across jobs when repeats.
func walkMap[V ~int | ~int64](w *wire, key string, p *map[string]V, repeats bool) {
	switch w.lit(key); {
	case !w.read && *p == nil:
		w.out = append(w.out, "null"...)
	case !w.read:
		var buf [8]string
		keys := slices.AppendSeq(buf[:0], maps.Keys(*p))
		slices.Sort(keys)
		w.out = append(w.out, '{')
		for i, k := range keys {
			if i > 0 {
				w.out = append(w.out, ',')
			}
			w.out = strconv.AppendInt(append(skeleton.AppendJSONString(w.out, k), ':'), int64((*p)[k]), 10)
		}
		w.out = append(w.out, '}')
	case !w.ok || w.in.Lit("null"):
	default:
		m := make(map[string]V)
		*p = m
		if w.in.Lit("{}") {
			return
		}
		for sep := "{"; w.ok; sep = "," {
			var k string
			var v V
			w.str(sep, &k, repeats)
			num(w, ":", &v)
			if w.ok {
				m[k] = v
			}
			if w.ok && w.in.Lit("}") {
				return
			}
		}
	}
}

// submission is what follows the workload in a submission.
func (w *wire) submission(req *SubmitRequest) {
	w.lit(`,"config":`)
	c := &req.Config
	num(w, `{"Binding":`, &c.Binding)
	num(w, `,"Scheduler":`, &c.Scheduler)
	num(w, `,"Pilots":`, &c.Pilots)
	w.bool(`,"AutoPilots":`, &c.AutoPilots)
	num(w, `,"Selection":`, &c.Selection)
	w.strs(`,"FixedResources":`, &c.FixedResources)
	w.lit("}")
	if ptr(w, `,"strategy":`, &req.Strategy) {
		w.strategy(req.Strategy)
	}
	if ptr(w, `,"adaptive":`, &req.Adaptive) {
		a := req.Adaptive
		num(w, `{"Patience":`, &a.Patience)
		num(w, `,"MaxExtraPilots":`, &a.MaxExtraPilots)
		w.bool(`,"ReplaceLostPilots":`, &a.ReplaceLostPilots)
		num(w, `,"MaxReplacements":`, &a.MaxReplacements)
		w.lit("}")
	}
	w.optStr(`,"placement":`, &req.Placement, false)
	if w.has(`,"shard":`, req.Shard != 0) {
		num(w, "", &req.Shard)
	}
	w.optStr(`,"migrate":`, &req.Migrate, false)
	w.lit("}")
}

func (w *wire) strategy(s *aimes.Strategy) {
	num(w, `{"Binding":`, &s.Binding)
	num(w, `,"Scheduler":`, &s.Scheduler)
	num(w, `,"Pilots":`, &s.Pilots)
	w.strs(`,"Resources":`, &s.Resources)
	num(w, `,"PilotCores":`, &s.PilotCores)
	num(w, `,"PilotWalltime":`, &s.PilotWalltime)
	num(w, `,"EstTx":`, &s.EstTx)
	num(w, `,"EstTs":`, &s.EstTs)
	num(w, `,"EstTrp":`, &s.EstTrp)
	w.lit("}")
}

func (w *wire) jobInfo(info *JobInfo) {
	w.str(`{"id":`, &info.ID, false)
	w.str(`,"tenant":`, &info.Tenant, true)
	w.str(`,"state":`, &info.State, true)
	w.bool(`,"final":`, &info.Final)
	num(w, `,"shard":`, &info.Shard)
	w.optStr(`,"namespace":`, &info.Namespace, false)
	if w.has(`,"migrated":`, info.Migrated) {
		w.bool("", &info.Migrated)
	}
	w.time(`,"submitted_at":`, &info.SubmittedAt)
	w.optStr(`,"error":`, &info.Error, false)
	if ptr(w, `,"report":`, &info.Report) {
		p := info.Report
		w.lit(`{"Strategy":`)
		w.strategy(&p.Strategy)
		num(w, `,"TTC":`, &p.TTC)
		num(w, `,"Tw":`, &p.Tw)
		num(w, `,"Tx":`, &p.Tx)
		num(w, `,"Ts":`, &p.Ts)
		num(w, `,"UnitsDone":`, &p.UnitsDone)
		num(w, `,"UnitsFailed":`, &p.UnitsFailed)
		num(w, `,"UnitsCanceled":`, &p.UnitsCanceled)
		num(w, `,"TotalRestarts":`, &p.TotalRestarts)
		walkMap(w, `,"PilotWaits":`, &p.PilotWaits, false)
		walkMap(w, `,"UnitsByResource":`, &p.UnitsByResource, true)
		num(w, `,"PilotsActivated":`, &p.PilotsActivated)
		num(w, `,"ExtraPilots":`, &p.ExtraPilots)
		w.float(`,"Throughput":`, &p.Throughput)
		w.float(`,"CoreHours":`, &p.CoreHours)
		w.float(`,"BusyCoreHours":`, &p.BusyCoreHours)
		w.float(`,"Efficiency":`, &p.Efficiency)
		w.lit("}")
	}
	if w.has(`,"events_dropped":`, info.EventsDropped != 0) {
		num(w, "", &info.EventsDropped)
	}
	w.lit("}")
}

func (w *wire) event(ev *Event) {
	w.lit("{")
	if w.has(`"seq":`, ev.Seq != 0) {
		num(w, "", &ev.Seq)
		w.lit(",")
	}
	if w.has(`"job":`, ev.Job != "") {
		w.str("", &ev.Job, true)
		w.lit(",")
	}
	num(w, `"time":`, &ev.Time)
	w.str(`,"entity":`, &ev.Entity, true)
	w.str(`,"state":`, &ev.State, true)
	w.optStr(`,"detail":`, &ev.Detail, true)
	w.lit("}")
}

// AppendJobInfo appends info as json.Marshal writes it — a job reply's body,
// a "done" SSE event's data — and fails where json.Marshal fails: a NaN or
// infinite float in the report, a SubmittedAt RFC 3339 cannot write.
func AppendJobInfo(dst []byte, info *JobInfo) ([]byte, error) {
	w := wire{out: dst}
	w.jobInfo(info)
	return w.out, w.err
}

// AppendEvent appends ev as json.Marshal writes it: the data of an SSE
// "job" or "trace" event.
func AppendEvent(dst []byte, ev *Event) []byte {
	w := wire{out: dst}
	w.event(ev)
	return w.out
}

// ParseSubmitRequest reads a POST /v1/jobs body into the request and its
// workload, validated. A body in the form Submit writes is read in one pass,
// its document in place, and req.Workload aliases body; any other is decoded
// by encoding/json. Nothing but whitespace may follow the request.
func ParseSubmitRequest(body []byte) (*SubmitRequest, *aimes.Workload, error) {
	req := new(SubmitRequest)
	r := reader(body, nil)
	if r.lit(workloadKey); r.ok {
		doc := r.in.Rest()
		if w, err := r.in.Workload(); w != nil || err != nil {
			req.Workload = doc[:len(doc)-len(r.in.Rest())]
			if r.submission(req); r.ok && r.in.End() {
				return req, w, err
			}
		}
	}
	*req = SubmitRequest{}
	if err := json.Unmarshal(body, req); err != nil {
		return nil, nil, fmt.Errorf("bad request body: %w", err)
	}
	if len(req.Workload) == 0 {
		return nil, nil, errors.New("missing workload")
	}
	w, err := skeleton.ParseWorkload(req.Workload)
	return req, w, err
}
