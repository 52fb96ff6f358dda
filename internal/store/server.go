package store

import (
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"knighter/internal/engine"
	"knighter/internal/obs"
)

// maxEntryBytes bounds one serialized entry on the wire (both directions)
// so a corrupt or malicious peer cannot make either side buffer an
// unbounded body. Far above any real engine.Result.
const maxEntryBytes = 32 << 20

// CacheServer serves a Store over HTTP — the handler side of the Remote
// client, and the whole of the kcached daemon. The protocol is the Store
// interface spelled as four routes:
//
//	GET  /entry/{id}?fh=&ck=&eng=   cached result (200) or miss (404)
//	PUT  /entry/{id}?fh=&ck=&eng=   store a result (204)
//	POST /invalidate                {"func_hashes": [...]} -> {"invalidated": n}
//	GET  /stats                     store + request counters
//	GET  /healthz                   liveness
//
// Entries are addressed by Key.ID() in the path, with the key components
// repeated as query parameters: the server recomputes the content address
// from them and rejects mismatches, so a buggy client cannot accidentally
// store under a key other clients would trust. (The payload itself is not
// proven against the key — the daemon is a shared cache for a mutually
// trusting fleet, not a defense against malicious replicas.)
type CacheServer struct {
	st      Store
	started time.Time

	gets        atomic.Int64
	puts        atomic.Int64
	invalidates atomic.Int64
	badRequests atomic.Int64

	// entryReqs counts entry requests by op and outcome; nil until
	// Register, which also mounts the registry on GET /metrics.
	entryReqs *obs.CounterVec
	metrics   http.Handler

	// ro, once Observe was called, is the daemon chassis around the
	// cache routes: every request records a root-span fragment (attached
	// under the caller's X-Span-Id) that GET /trace/{id} serves back to
	// a coordinating kserve — requests sharing a trace id, a scan's many
	// entry round-trips, merge into one fragment — plus the access-log
	// line and the request-latency histogram.
	ro *obs.RequestObserver
}

// NewCacheServer wraps st (kcached passes its Stack) in the HTTP protocol.
func NewCacheServer(st Store) *CacheServer {
	return &CacheServer{st: st, started: time.Now()}
}

// Observe mounts the daemon chassis (kcached builds it; tests and
// probes that want the bare protocol skip it). Call before Register, so
// the chassis's instruments land on /metrics too, and before Handler.
func (cs *CacheServer) Observe(ro *obs.RequestObserver) { cs.ro = ro }

// Register wires the server's counters into reg and mounts reg's
// exposition on GET /metrics (kcached calls this; tests may skip it).
// The request totals that already exist as atomics for /stats are
// exposed as counter funcs rather than double-counted.
func (cs *CacheServer) Register(reg *obs.Registry) {
	cs.entryReqs = reg.CounterVec("entry_requests_total",
		"Entry requests served, by operation and outcome.", "op", "outcome")
	reg.CounterFunc("invalidate_requests_total",
		"POST /invalidate requests served.",
		func() float64 { return float64(cs.invalidates.Load()) })
	reg.CounterFunc("bad_requests_total",
		"Requests rejected before reaching the store (bad key, oversized or unparseable body, uncacheable result).",
		func() float64 { return float64(cs.badRequests.Load()) })
	reg.GaugeFunc("store_entries", "Live entries in the backing store.",
		func() float64 { return float64(cs.st.Stats().Entries) })
	reg.GaugeFunc("store_bytes", "Serialized bytes of live entries in the backing store.",
		func() float64 { return float64(cs.st.Stats().Bytes) })
	if cs.ro != nil {
		cs.ro.Duration = reg.HistogramVec("request_duration_seconds",
			"Wall time of one cache-protocol request.", nil, "op")
		cs.ro.Traces.Register(reg)
	}
	obs.RegisterBuildInfo(reg, func() float64 { return time.Since(cs.started).Seconds() })
	cs.metrics = reg.Handler()
}

// Handler returns the route table.
func (cs *CacheServer) Handler() http.Handler {
	mux := http.NewServeMux()
	// An entry-get 404 is a miss, not a failure.
	mux.HandleFunc("GET /entry/{id}", cs.ro.Wrap("get", cs.handleGet, http.StatusNotFound))
	mux.HandleFunc("PUT /entry/{id}", cs.ro.Wrap("put", cs.handlePut))
	mux.HandleFunc("POST /invalidate", cs.ro.Wrap("invalidate", cs.handleInvalidate))
	// kcached never fans out: it is always a leaf of the request tree,
	// so its local fragment is the whole answer.
	traces := cs.traces()
	mux.HandleFunc("GET /trace/{id}", traces.ServeTrace)
	mux.HandleFunc("GET /traces", traces.ServeList)
	mux.HandleFunc("GET /stats", cs.handleStats)
	mux.HandleFunc("GET /healthz", cs.handleHealthz)
	if cs.metrics != nil {
		mux.Handle("GET /metrics", cs.metrics)
	}
	return mux
}

// traces is the chassis's trace store (nil without one; its methods
// are nil-safe).
func (cs *CacheServer) traces() *obs.TraceStore {
	if cs.ro == nil {
		return nil
	}
	return cs.ro.Traces
}

// countEntry records one entry-request outcome (no-op until Register).
func (cs *CacheServer) countEntry(op, outcome string) {
	if cs.entryReqs != nil {
		cs.entryReqs.With(op, outcome).Inc()
	}
}

// entryKey reconstructs the key from the query parameters and verifies it
// matches the content address in the path. ok=false means the request was
// already answered with a 400.
func (cs *CacheServer) entryKey(w http.ResponseWriter, r *http.Request) (Key, bool) {
	q := r.URL.Query()
	k := Key{FuncHash: q.Get("fh"), CheckerFP: q.Get("ck"), EngineFP: q.Get("eng")}
	if k.FuncHash == "" {
		cs.badRequests.Add(1)
		http.Error(w, `{"error":"missing 'fh' (function hash)"}`, http.StatusBadRequest)
		return Key{}, false
	}
	if k.ID() != r.PathValue("id") {
		cs.badRequests.Add(1)
		http.Error(w, `{"error":"key components do not hash to the entry id"}`, http.StatusBadRequest)
		return Key{}, false
	}
	return k, true
}

func (cs *CacheServer) handleGet(w http.ResponseWriter, r *http.Request) {
	k, ok := cs.entryKey(w, r)
	if !ok {
		return
	}
	cs.gets.Add(1)
	res, ok := cs.st.Get(r.Context(), k)
	if !ok {
		cs.countEntry("get", "miss")
		http.Error(w, `{"error":"miss"}`, http.StatusNotFound)
		return
	}
	cs.countEntry("get", "hit")
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

func (cs *CacheServer) handlePut(w http.ResponseWriter, r *http.Request) {
	k, ok := cs.entryKey(w, r)
	if !ok {
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxEntryBytes+1))
	if err != nil || len(data) > maxEntryBytes {
		cs.badRequests.Add(1)
		http.Error(w, `{"error":"body unreadable or too large"}`, http.StatusBadRequest)
		return
	}
	var res engine.Result
	if err := json.Unmarshal(data, &res); err != nil {
		// Never store bytes that do not round-trip as a Result: every
		// other replica would then fail its decode and count the shared
		// tier as broken.
		cs.badRequests.Add(1)
		http.Error(w, `{"error":"body is not an engine.Result"}`, http.StatusBadRequest)
		return
	}
	if res.TimedOut || res.Canceled {
		// Timed-out and canceled results reflect one caller's wall clock
		// or lifetime, not the key's inputs — the engine-wide invariant
		// is that they are never cached, and the shared tier enforces it
		// here so one buggy client cannot poison every replica's warm
		// hits with truncated results.
		cs.badRequests.Add(1)
		http.Error(w, `{"error":"timed-out or canceled results are uncacheable"}`, http.StatusBadRequest)
		return
	}
	cs.puts.Add(1)
	cs.countEntry("put", "stored")
	cs.st.Put(r.Context(), k, &res)
	w.WriteHeader(http.StatusNoContent)
}

func (cs *CacheServer) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	var req invalidateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxEntryBytes)).Decode(&req); err != nil {
		cs.badRequests.Add(1)
		http.Error(w, `{"error":"bad JSON: `+err.Error()+`"}`, http.StatusBadRequest)
		return
	}
	cs.invalidates.Add(1)
	n := cs.st.InvalidateFuncs(req.FuncHashes)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(invalidateResponse{Invalidated: n})
}

// CacheServerStats is the GET /stats reply.
type CacheServerStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Store         Stats   `json:"store"`
	StoreHitRate  float64 `json:"store_hit_rate"`
	Gets          int64   `json:"gets"`
	Puts          int64   `json:"puts"`
	Invalidates   int64   `json:"invalidates"`
	BadRequests   int64   `json:"bad_requests"`
	// TraceStore is present when the chassis retains traces.
	TraceStore *obs.TraceStoreStats `json:"trace_store,omitempty"`
}

func (cs *CacheServer) handleStats(w http.ResponseWriter, r *http.Request) {
	st := cs.st.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(CacheServerStats{
		UptimeSeconds: time.Since(cs.started).Seconds(),
		Store:         st,
		StoreHitRate:  st.HitRate(),
		Gets:          cs.gets.Load(),
		Puts:          cs.puts.Load(),
		Invalidates:   cs.invalidates.Load(),
		BadRequests:   cs.badRequests.Load(),
		TraceStore:    cs.traces().Stats(),
	})
}

func (cs *CacheServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"ok": true, "entries": cs.st.Stats().Entries})
}
