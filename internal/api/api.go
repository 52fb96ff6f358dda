// Package api defines the wire types of the scan service: every
// request and response body kserve speaks, plus the uniform error
// envelope and the generation-awareness conventions shared by all of
// them. Clients (the refinement loop, the eval harness, tests, fleet
// siblings) import this package instead of re-declaring ad-hoc structs
// against the JSON.
//
// Conventions:
//
//   - Every response — success or error — carries the corpus generation
//     it was served against, both in the body ("generation") and in the
//     GenerationHeader. A scan's generation is the snapshot it pinned;
//     a mutation's is the generation it committed.
//   - Scan-shaped requests accept "min_generation": serve-at-or-after.
//     The daemon waits a bounded interval for the corpus to reach that
//     generation and answers 409 (ErrGenerationUnavailable) with the
//     current generation and a retry hint if it cannot.
//   - Errors use the envelope {"error": {"code", "message",
//     "retry_after_ms"}}.
package api

import (
	"knighter/internal/obs"
	"knighter/internal/store"
)

// GenerationHeader is the response header carrying the corpus
// generation the request was served against, on every endpoint
// including errors — so even a shed or rejected request tells the
// client where the corpus stands.
const GenerationHeader = "X-KN-Generation"

// Error codes. Stable strings, coarser than HTTP status codes only
// where HTTP is too coarse (409 means "generation unavailable" here).
const (
	// ErrBadRequest: malformed body or missing required field (400).
	ErrBadRequest = "bad_request"
	// ErrMethodNotAllowed: wrong HTTP method (405).
	ErrMethodNotAllowed = "method_not_allowed"
	// ErrNotFound: unknown file path or unknown resource (404).
	ErrNotFound = "not_found"
	// ErrUnprocessable: well-formed but rejected — checker does not
	// compile, changeset fails validation (422).
	ErrUnprocessable = "unprocessable"
	// ErrOverloaded: shed by admission control; retry_after_ms is set
	// (429, with the Retry-After header as before).
	ErrOverloaded = "overloaded"
	// ErrGenerationUnavailable: min_generation not reached within the
	// bounded wait; the body's generation is the current one and
	// retry_after_ms hints when to ask again (409).
	ErrGenerationUnavailable = "generation_unavailable"
	// ErrUnavailable: a subsystem is not configured (e.g. /metrics
	// without a registry) (404/503).
	ErrUnavailable = "unavailable"
)

// Error is the uniform error envelope's payload.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS, when > 0, hints when retrying may succeed —
	// admission sheds and unsatisfied min_generation waits set it.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Err *Error `json:"error"`
	// Generation is the corpus generation at the time of the error —
	// for ErrGenerationUnavailable, the generation the daemon is AT.
	Generation int64 `json:"generation"`
	// TraceID is the request's trace id — the same value as the
	// X-Trace-Id response header, duplicated in the body so a client
	// that only logs bodies can still feed GET /trace/{id}. Empty on
	// paths that run outside the tracing middleware.
	TraceID string `json:"trace_id,omitempty"`
}

// ScanRequest is the POST /scan body.
type ScanRequest struct {
	// Checker is the checker-DSL program text.
	Checker string `json:"checker"`
	// Files optionally restricts the scan to these corpus paths.
	Files []string `json:"files,omitempty"`
	// MaxReports caps collected reports (0 = unlimited).
	MaxReports int `json:"max_reports,omitempty"`
	// Workers overrides the parallelism degree (0 = GOMAXPROCS). It is a
	// ceiling: the scan starts at most one worker per range of functions.
	Workers int `json:"workers,omitempty"`
	// FuncTimeoutMS is the per-function analysis budget in milliseconds
	// (0 = none).
	FuncTimeoutMS int `json:"func_timeout_ms,omitempty"`
	// MinGeneration, when > 0, asks to be served at-or-after that corpus
	// generation — read-your-writes for a client holding a changeset
	// token. The daemon waits a bounded interval; if the corpus does not
	// reach the generation in time the request fails 409 with
	// ErrGenerationUnavailable.
	MinGeneration int64 `json:"min_generation,omitempty"`
	// IncludeTrace adds the per-report path trace to the response.
	IncludeTrace bool `json:"include_trace,omitempty"`
	// IncludeTiming adds the request's trace id and per-stage span
	// timeline to the response — the same timeline the slow-request log
	// prints, on demand.
	IncludeTiming bool `json:"include_timing,omitempty"`
	// ShardLocal marks a sub-scan inside a sharded fan-out: the serving
	// replica must scan exactly Files on its local snapshot — no
	// re-scattering — and include per-file cuts in the response so the
	// coordinator can merge partials in global file order. Set by the
	// scatter client, not by end clients.
	ShardLocal bool `json:"shard_local,omitempty"`
}

// Report is one bug report on the wire.
type Report struct {
	Checker string      `json:"checker"`
	BugType string      `json:"bug_type"`
	Message string      `json:"message"`
	File    string      `json:"file"`
	Func    string      `json:"func"`
	Line    int         `json:"line"`
	Col     int         `json:"col"`
	Region  string      `json:"region,omitempty"`
	Trace   []TraceStep `json:"trace,omitempty"`
}

// TraceStep is one step of a report's path trace.
type TraceStep struct {
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Note string `json:"note"`
}

// CacheStats reports per-request cache effectiveness.
type CacheStats struct {
	Hits    int     `json:"hits"`
	Misses  int     `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// ScanResponse is the POST /scan reply, and one entry of POST /batch.
type ScanResponse struct {
	Checker string `json:"checker"`
	// Error is the per-entry compile error inside a batch reply (the
	// whole-request error path uses ErrorResponse instead).
	Error        string     `json:"error,omitempty"`
	Reports      []Report   `json:"reports"`
	FilesScanned int        `json:"files_scanned"`
	FuncsScanned int        `json:"funcs_scanned"`
	RuntimeErrs  []string   `json:"runtime_errs,omitempty"`
	Truncated    bool       `json:"truncated"`
	Canceled     bool       `json:"canceled,omitempty"`
	TimedOut     int        `json:"funcs_timed_out,omitempty"`
	Cache        CacheStats `json:"cache"`
	// Generation is the snapshot generation the scan pinned: every
	// report above was computed against exactly that corpus state.
	Generation int64 `json:"generation"`
	// ElapsedMS is the wall time of the scheduler pass that produced this
	// result. Every entry of a /batch carries the same value — the whole
	// pass's: one exploration serves all the batch's checkers, and its
	// cost does not divide by checker.
	ElapsedMS float64 `json:"elapsed_ms"`
	// TraceID and Timing are present when the request asked for
	// include_timing: the request's trace id (echoed in the X-Trace-Id
	// response header too) and its per-stage span timeline.
	TraceID string     `json:"trace_id,omitempty"`
	Timing  []obs.Span `json:"timing,omitempty"`
	// FileCuts is present only on shard-local sub-scan replies: for each
	// requested file in request order, how many of the flat Reports and
	// RuntimeErrs entries it contributed. The coordinator slices partials
	// by these cuts to reassemble the global file order exactly.
	FileCuts []FileCut `json:"file_cuts,omitempty"`
}

// FileCut is one file's contribution to a sub-scan reply's flat report
// and runtime-error slices, in request file order.
type FileCut struct {
	Reports     int `json:"reports"`
	RuntimeErrs int `json:"runtime_errs,omitempty"`
}

// BatchRequest is the POST /batch body: N checker revisions evaluated
// over the shared store in one request.
type BatchRequest struct {
	// Checkers are the checker-DSL program texts.
	Checkers []string `json:"checkers"`
	// Files optionally restricts every scan to these corpus paths.
	Files []string `json:"files,omitempty"`
	// MaxReports caps collected reports per checker (0 = unlimited).
	MaxReports int `json:"max_reports,omitempty"`
	// Workers overrides the batch's parallelism over functions (0 =
	// GOMAXPROCS); like ScanRequest.Workers, a ceiling.
	Workers int `json:"workers,omitempty"`
	// Concurrency is ignored. It bounded how many checkers ran at once
	// when a batch was one scan per checker; a batch is one pass with
	// every checker riding it now. Still decoded, so requests from older
	// clients are not rejected as carrying an unknown field.
	Concurrency int `json:"concurrency,omitempty"`
	// FuncTimeoutMS is the per-function analysis budget, as on ScanRequest.
	FuncTimeoutMS int `json:"func_timeout_ms,omitempty"`
	// MinGeneration: serve-at-or-after, as on ScanRequest. The whole
	// batch pins ONE snapshot at or after it.
	MinGeneration int64 `json:"min_generation,omitempty"`
	// IncludeTrace adds per-report path traces to the responses.
	IncludeTrace bool `json:"include_trace,omitempty"`
	// IncludeTiming adds the request's trace id and stage timeline to
	// the batch reply (one trace per HTTP request; entries share it).
	IncludeTiming bool `json:"include_timing,omitempty"`
	// ShardLocal marks a sub-batch inside a sharded fan-out, with the
	// same contract as ScanRequest.ShardLocal.
	ShardLocal bool `json:"shard_local,omitempty"`
}

// BatchResponse is the POST /batch reply: per-checker results in
// request order plus aggregate cache effectiveness.
type BatchResponse struct {
	Results []*ScanResponse `json:"results"`
	// CheckersRun counts checkers that compiled and scanned;
	// CheckerErrors counts entries rejected at compile time.
	CheckersRun   int        `json:"checkers_run"`
	CheckerErrors int        `json:"checker_errors"`
	Cache         CacheStats `json:"cache"`
	// Generation is the single snapshot generation every entry scanned:
	// the batch pins once, so all results are mutually consistent.
	Generation int64   `json:"generation"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	// TraceID and Timing are present when the request asked for
	// include_timing; the timeline is the batch's one pass (each stage
	// once, its count summed over the batch's checkers).
	TraceID string     `json:"trace_id,omitempty"`
	Timing  []obs.Span `json:"timing,omitempty"`
}

// Change is one element of a changeset request: an empty Func replaces
// the whole file with Source; otherwise Source must be a single function
// that replaces Func within the file.
type Change struct {
	Path   string `json:"path"`
	Func   string `json:"func,omitempty"`
	Source string `json:"source"`
}

// MaxBodyBytes bounds a request body on both daemons. The largest real
// body is a changeset (or the feed entry that carries one): one
// replacing every file of the scale-1 corpus (315 files) is 0.47 MB of
// JSON, and a commit touches a handful of files, so 8 MiB is ample
// headroom while a runaway client cannot make a daemon buffer without
// bound.
const MaxBodyBytes = 8 << 20

// ChangesetRequest is the POST /changeset body: a commit-sized batch of
// file updates applied atomically — one snapshot swap, one generation
// bump, and a bad change rejects the entire set.
type ChangesetRequest struct {
	Changes []Change `json:"changes"`
}

// StatusCommitted is ChangesetResponse.Status: the changeset is visible
// at its generation.
const StatusCommitted = "committed"

// ChangesetResponse is the POST /changeset reply: the committed
// outcome. Generation is the read-your-writes handle — pass it as
// min_generation on a later scan, on any replica of the fleet.
type ChangesetResponse struct {
	Status           string   `json:"status"`
	Generation       int64    `json:"generation"`
	Ops              int      `json:"ops,omitempty"`
	Files            []string `json:"files,omitempty"`
	ChangedFuncs     int      `json:"changed_funcs,omitempty"`
	StaleHashes      int      `json:"stale_hashes,omitempty"`
	StoreInvalidated int      `json:"store_invalidated,omitempty"`
	ElapsedMS        float64  `json:"elapsed_ms"`
}

// FeedEntry is one fleet-wide changeset commit in the generation feed
// a sharded fleet runs through kcached: the coordinator that committed
// generation N publishes (N, changes); a shard that finds itself behind
// pulls the entries it is missing and replays them in order. Changes is
// never empty: every generation is a commit of at least one change.
type FeedEntry struct {
	Generation int64    `json:"generation"`
	Changes    []Change `json:"changes"`
}

// FeedPage is the GET /feed?from=N reply: the retained entries with
// generation > from, in ascending generation order.
type FeedPage struct {
	Entries []FeedEntry `json:"entries"`
	// Latest is the highest generation ever published (0 = empty feed).
	// A shard whose local generation is below Latest but whose gap is
	// not covered by Entries (the feed evicted them) cannot converge
	// from the feed alone.
	Latest int64 `json:"latest"`
}

// ConvergeResponse is the POST /converge reply: the shard pulled the
// generation feed and replayed every entry it was missing.
type ConvergeResponse struct {
	Generation int64 `json:"generation"`
	// Applied counts feed entries replayed by this call.
	Applied   int     `json:"applied"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ShardStats is the GET /stats view of the shard fan-out layer,
// present only when the daemon runs sharded (-shard-count > 1).
type ShardStats struct {
	Index int      `json:"index"`
	Count int      `json:"count"`
	Peers []string `json:"peers"`
	// Scatters counts coordinated fan-outs; Degraded counts scatters
	// where at least one partition fell back to the local snapshot.
	Scatters int64 `json:"scatters"`
	Degraded int64 `json:"degraded_scatters"`
	// SubScansServed counts shard-local sub-scans this replica answered
	// for other coordinators; Converges counts feed replays.
	SubScansServed int64 `json:"sub_scans_served"`
	Converges      int64 `json:"converges"`
	FeedPublishes  int64 `json:"feed_publishes"`
	// PeerHealthy, indexed by shard, is each peer's last-observed
	// scatter health (self is always true).
	PeerHealthy []bool `json:"peer_healthy"`
}

// AdmissionStats is the GET /stats view of an admission gate.
type AdmissionStats struct {
	MaxInflight        int   `json:"max_inflight"`
	MaxQueued          int64 `json:"max_queued"`
	MaxQueuedPerClient int64 `json:"max_queued_per_client,omitempty"`
	Inflight           int64 `json:"inflight"`
	Queued             int64 `json:"queued"`
	QueuedClients      int   `json:"queued_clients"`
	Admitted           int64 `json:"admitted"`
	Shed               int64 `json:"shed"`
	// FairnessShed counts sheds caused by the per-client bound alone —
	// requests that would have queued had another client sent them.
	FairnessShed int64 `json:"fairness_shed"`
	// MaxCost, when > 0, bounds the summed cost weight (checkers ×
	// files) of admitted requests; CostWeight is the weight currently
	// outstanding and CostShed counts requests shed by the cost bound
	// alone (they had an inflight token but weighed too much).
	MaxCost    int64 `json:"max_cost,omitempty"`
	CostWeight int64 `json:"cost_weight"`
	CostShed   int64 `json:"cost_shed,omitempty"`
}

// StatsResponse is the GET /stats reply.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	Files         int     `json:"files"`
	Funcs         int     `json:"funcs"`
	Generation    int64   `json:"generation"`
	// PinnedSnapshots counts old generations in-flight scans still hold
	// pinned — retained corpus versions an operator can watch.
	PinnedSnapshots int         `json:"pinned_snapshots"`
	Scans           int64       `json:"scans"`
	Batches         int64       `json:"batches"`
	Changesets      int64       `json:"changesets"`
	ScanErrors      int64       `json:"scan_errors"`
	ScansCanceled   int64       `json:"scans_canceled"`
	ReportsServed   int64       `json:"reports_served"`
	GCRemoved       int64       `json:"gc_removed"`
	Store           store.Stats `json:"store"`
	StoreHitRate    float64     `json:"store_hit_rate"`
	// Remote is present only when the daemon runs with a fleet cache
	// tier (-cache-remote): the client-side view of the shared tier's
	// health, including circuit-breaker state.
	Remote *store.RemoteStats `json:"remote,omitempty"`
	// Admission is present only when the daemon runs with read
	// admission control (-max-inflight > 0); WriteAdmission mirrors it
	// for the write gate (-max-inflight-writes), which exists so
	// changeset storms shed writes without ever shedding reads.
	Admission      *AdmissionStats `json:"admission,omitempty"`
	WriteAdmission *AdmissionStats `json:"write_admission,omitempty"`
	// Shards is present only when the daemon runs sharded
	// (-shard-count > 1): the fan-out layer's counters and peer health.
	Shards *ShardStats `json:"shards,omitempty"`
	// TraceStore is present when the daemon retains traces
	// (-trace-retain > 0): the tail-sampling store's keep/sample/evict
	// counters.
	TraceStore *obs.TraceStoreStats `json:"trace_store,omitempty"`
	// ScanExemplars maps scan-duration histogram bucket upper bounds to
	// the trace id of the last scan that landed in each — the /stats
	// twin of the /metrics # EXEMPLAR comments.
	ScanExemplars map[string]string `json:"scan_exemplars,omitempty"`
}

// TraceListResponse is the GET /traces reply: the newest retained
// traces in the local store, newest first.
type TraceListResponse struct {
	Traces []obs.TraceSummary `json:"traces"`
}

// HealthzResponse is the GET /healthz reply.
type HealthzResponse struct {
	OK         bool  `json:"ok"`
	Files      int   `json:"files"`
	Generation int64 `json:"generation"`
	// PinnedSnapshots mirrors StatsResponse's field so a liveness probe
	// can watch snapshot retention without the full stats body.
	PinnedSnapshots int `json:"pinned_snapshots"`
}
