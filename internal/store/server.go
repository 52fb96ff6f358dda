package store

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"knighter/internal/engine"
	"knighter/internal/obs"
)

// maxEntryBytes bounds every body on the entry routes — each request,
// each reply — so a corrupt or malicious peer cannot make either side
// buffer an unbounded body. Far above any real range of results; the
// client splits a larger put list. A variable only so tests can reach
// the bound without 32 MiB bodies.
var maxEntryBytes = 32 << 20

// CacheServer serves a Store over HTTP — the handler side of the Remote
// client, and the whole of the kcached daemon. The protocol is the Store
// interface spelled as routes, a range of entries per round trip:
//
//	POST /entries/get   keys -> one frame per key: a record (hit) or empty (miss)
//	POST /entries/put   keys, each followed by its record -> 204
//	POST /invalidate    {"func_hashes": [...]} -> {"invalidated": n}
//	GET  /stats         store + request counters
//	GET  /healthz       liveness
//
// Entry bodies are binary, in the result codec's own framing: a key is
// its three components as length-prefixed strings (appendKey), and a
// record is an encodeResult payload framed the same way (appendFrame).
// The server derives every content address from the key components
// itself, so a client cannot store under an address other clients would
// trust for other inputs. (The payload itself is not proven against the
// key — the daemon is a shared cache for a mutually trusting fleet, not
// a defense against malicious replicas.) A put body is checked whole
// before anything is stored: a malformed frame, a record that fails the
// strict decode, or a timed-out or canceled result rejects the body
// with a 400. Counters stay per entry: a round trip of n keys is n gets
// or n puts.
//
// These routes replaced per-key JSON ones. Across the change, both
// sides degrade rather than fail: an old replica's entry puts get 404s
// from a new kcached, which open its breaker, and a new replica's get
// 404s from an old one — either way, local misses, no failed scans.
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
	// a coordinating kserve — requests sharing a trace id, a scan's
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
	mux.HandleFunc("POST /entries/get", cs.ro.Wrap("get", cs.handleGet))
	mux.HandleFunc("POST /entries/put", cs.ro.Wrap("put", cs.handlePut))
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

// countEntry records n entry-request outcomes (no-op until Register).
func (cs *CacheServer) countEntry(op, outcome string, n int) {
	if cs.entryReqs != nil {
		cs.entryReqs.With(op, outcome).Add(float64(n))
	}
}

// readEntries reads and parses an entry-route body, answering an
// unreadable or oversized body, or one parseEntries refuses, with a 400
// itself (ok=false).
func (cs *CacheServer) readEntries(w http.ResponseWriter, r *http.Request, records bool) (keys []Key, ids []Digest, rs []*engine.Result, ok bool) {
	data, err := io.ReadAll(io.LimitReader(r.Body, int64(maxEntryBytes)+1))
	bad := "body unreadable or too large"
	if err == nil && len(data) <= maxEntryBytes {
		keys, ids, rs, bad = parseEntries(data, records)
	}
	if bad != "" {
		cs.badRequests.Add(1)
		http.Error(w, `{"error":"`+bad+`"}`, http.StatusBadRequest)
		return nil, nil, nil, false
	}
	return keys, ids, rs, true
}

// parseEntries parses an entry-route body: at least one key, each
// followed by a record when records is set, or else names what is
// wrong. A key needs a function hash, and a record must pass the strict
// decode and be cacheable: timed-out and canceled results reflect one
// caller's wall clock or lifetime, not the key's inputs, so the
// engine-wide invariant is that they are never cached, and the shared
// tier enforces it so one buggy client cannot poison every replica's
// warm hits with truncated results.
func parseEntries(data []byte, records bool) (keys []Key, ids []Digest, rs []*engine.Result, bad string) {
	d := &codecReader{buf: data}
	for len(d.buf) > 0 {
		k := d.key()
		if d.err != nil || k.FuncHash == "" {
			return nil, nil, nil, "malformed key, or no function hash"
		}
		keys, ids = append(keys, k), append(ids, k.Digest())
		if !records {
			continue
		}
		res, err := decodeResult(d.frame())
		if err != nil {
			return nil, nil, nil, "record is not an encoded engine.Result"
		}
		if res.TimedOut || res.Canceled {
			return nil, nil, nil, "timed-out or canceled results are uncacheable"
		}
		rs = append(rs, res)
	}
	if len(keys) == 0 {
		return nil, nil, nil, "no entries"
	}
	return keys, ids, rs, ""
}

// handleGet answers a range of keys in one reply, in key order. The
// reply stays within maxEntryBytes too: a hit that would cross it is
// answered as a miss (every later frame costs at least a byte).
func (cs *CacheServer) handleGet(w http.ResponseWriter, r *http.Request) {
	keys, ids, _, ok := cs.readEntries(w, r, false)
	if !ok {
		return
	}
	out := make([]*engine.Result, len(keys))
	GetMany(r.Context(), cs.st, keys, ids, out)
	var reply []byte
	hits := 0
	for i, res := range out {
		var rec []byte
		if res != nil {
			rec = encodeResult(res)
		}
		if len(reply)+binary.MaxVarintLen64+len(rec)+len(out)-i > maxEntryBytes {
			rec = nil
		}
		if rec != nil {
			hits++
		}
		reply = appendFrame(reply, rec)
	}
	cs.gets.Add(int64(len(keys)))
	cs.countEntry("get", "hit", hits)
	cs.countEntry("get", "miss", len(keys)-hits)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(reply)
}

// handlePut stores a range of results, all or none.
func (cs *CacheServer) handlePut(w http.ResponseWriter, r *http.Request) {
	keys, ids, rs, ok := cs.readEntries(w, r, true)
	if !ok {
		return
	}
	PutMany(r.Context(), cs.st, keys, ids, rs)
	cs.puts.Add(int64(len(keys)))
	cs.countEntry("put", "stored", len(keys))
	w.WriteHeader(http.StatusNoContent)
}

func (cs *CacheServer) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	var req invalidateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, int64(maxEntryBytes))).Decode(&req); err != nil {
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
