package store

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"strconv"
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

	// obs hooks, nil until Register is called: entry-request counters by
	// op and a request-latency histogram, exposed on GET /metrics.
	entryReqs *obs.CounterVec
	reqDur    *obs.HistogramVec
	metrics   http.Handler

	// traces, when EnableTracing was called, is the daemon's tail-sampled
	// trace store: every request records a root-span fragment (attached
	// under the caller's X-Span-Id) and GET /trace/{id} serves it back to
	// a coordinating kserve. Requests sharing a trace id — a scan's many
	// entry round-trips — merge into one fragment.
	traces *obs.TraceStore
}

// NewCacheServer wraps st (kcached passes its Stack) in the HTTP protocol.
func NewCacheServer(st Store) *CacheServer {
	return &CacheServer{st: st, started: time.Now()}
}

// EnableTracing installs the daemon's trace store; call before Register
// so the store's counters land on /metrics too.
func (cs *CacheServer) EnableTracing(ts *obs.TraceStore) { cs.traces = ts }

// Register wires the server's counters into reg and mounts reg's
// exposition on GET /metrics (kcached calls this; tests may skip it).
// The request totals that already exist as atomics for /stats are
// exposed as counter funcs rather than double-counted.
func (cs *CacheServer) Register(reg *obs.Registry) {
	cs.entryReqs = reg.CounterVec("entry_requests_total",
		"Entry requests served, by operation and outcome.", "op", "outcome")
	cs.reqDur = reg.HistogramVec("request_duration_seconds",
		"Wall time of one cache-protocol request.", nil, "op")
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
	cs.traces.Register(reg)
	if cs.traces != nil {
		reg.CounterFunc("trace_spans_dropped_total",
			"Trace spans dropped by the per-trace span cap.",
			func() float64 { return float64(obs.DroppedSpansTotal()) })
	}
	obs.RegisterBuildInfo(reg, func() float64 { return time.Since(cs.started).Seconds() })
	cs.metrics = reg.Handler()
}

// Handler returns the route table.
func (cs *CacheServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /entry/{id}", cs.timed("get", cs.handleGet))
	mux.HandleFunc("PUT /entry/{id}", cs.timed("put", cs.handlePut))
	mux.HandleFunc("POST /invalidate", cs.timed("invalidate", cs.handleInvalidate))
	mux.HandleFunc("GET /trace/{id}", cs.handleTrace)
	mux.HandleFunc("GET /traces", cs.handleTraces)
	mux.HandleFunc("GET /stats", cs.handleStats)
	mux.HandleFunc("GET /healthz", cs.handleHealthz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if cs.metrics == nil {
			http.Error(w, `{"error":"metrics not registered"}`, http.StatusNotFound)
			return
		}
		cs.metrics.ServeHTTP(w, r)
	})
	return mux
}

// timed wraps a handler with the per-op latency histogram (a no-op
// until Register) and, when tracing is enabled, a per-request trace
// fragment: a root span named after the op, attached under the caller's
// X-Span-Id, offered to the tail sampler when the request completes.
func (cs *CacheServer) timed(op string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var tr *obs.Trace
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if cs.traces != nil {
			tr = obs.NewTraceFor("kcached", r.Header.Get(obs.TraceHeader), r.Header.Get(obs.SpanHeader))
			w.Header().Set(obs.TraceHeader, tr.ID)
			r = r.WithContext(obs.WithTrace(r.Context(), tr))
		}
		h(sw, r)
		elapsed := time.Since(start)
		if cs.reqDur != nil {
			if tr != nil {
				cs.reqDur.With(op).ObserveExemplar(elapsed.Seconds(), tr.ID)
			} else {
				cs.reqDur.With(op).Observe(elapsed.Seconds())
			}
		}
		if tr != nil {
			status := ""
			// An entry-get 404 is a miss, not a failure; anything else
			// non-2xx is worth tagging on the span.
			errored := sw.code >= 400 && !(op == "get" && sw.code == http.StatusNotFound)
			if errored {
				status = http.StatusText(sw.code)
			}
			tr.CloseRoot("kcached_"+op, status, elapsed)
			cs.traces.Add(tr, obs.TraceMeta{Route: op, Status: sw.code, Elapsed: elapsed, Errored: errored})
		}
	}
}

// handleTrace serves one retained trace fragment. kcached never fans
// out: it is always a leaf of the request tree, so the local store is
// the whole answer (the ?local=1 form coordinators send is accepted and
// identical).
func (cs *CacheServer) handleTrace(w http.ResponseWriter, r *http.Request) {
	if cs.traces == nil {
		http.Error(w, `{"error":"tracing disabled (-trace-retain 0)"}`, http.StatusNotFound)
		return
	}
	st, ok := cs.traces.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, `{"error":"trace not retained (sampled out or evicted?)"}`, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// handleTraces lists the local trace index: GET /traces?limit=N&slow=1.
func (cs *CacheServer) handleTraces(w http.ResponseWriter, r *http.Request) {
	if cs.traces == nil {
		http.Error(w, `{"error":"tracing disabled (-trace-retain 0)"}`, http.StatusNotFound)
		return
	}
	limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
	slowOnly := r.URL.Query().Get("slow") != ""
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"traces": cs.traces.List(limit, slowOnly)})
}

// countEntry records one entry-request outcome (no-op until Register).
func (cs *CacheServer) countEntry(op, outcome string) {
	if cs.entryReqs != nil {
		cs.entryReqs.With(op, outcome).Inc()
	}
}

// statusWriter captures the response code and size for access logging.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// AccessLog wraps h with a per-request log line carrying the method,
// path, status, size, duration, and the request's trace id (from the
// X-Trace-Id header; "-" when absent) — the kcached side of the fleet's
// trace stitching: grep both daemons' logs for one id and the full
// cross-host story of a request lines up.
func AccessLog(l *log.Logger, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		tid := r.Header.Get(obs.TraceHeader)
		if tid == "" {
			tid = "-"
		}
		l.Printf("%s %s %d %dB %.3fms trace=%s",
			r.Method, r.URL.Path, sw.code, sw.bytes,
			float64(time.Since(start).Microseconds())/1000, tid)
	})
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
	n := invalidateAll(cs.st, req.FuncHashes)
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
	// TraceStore is present when tracing is enabled (EnableTracing).
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
		TraceStore:    cs.traces.Stats(),
	})
}

func (cs *CacheServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"ok": true, "entries": cs.st.Stats().Entries})
}
