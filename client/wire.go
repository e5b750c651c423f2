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
	"fmt"
	"time"

	"aimes"
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
func PlacementString(p aimes.Placement) string {
	switch p {
	case aimes.PlaceRoundRobin:
		return "round-robin"
	case aimes.PlaceLeastLoaded:
		return "least-loaded"
	case aimes.PlacePinned:
		return "pinned"
	case aimes.PlacePredictive:
		return "predictive"
	}
	return fmt.Sprintf("placement(%d)", int(p))
}

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
