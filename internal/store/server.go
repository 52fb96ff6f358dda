package store

import (
	"bytes"
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
// client, and the cache protocol of the kcached daemon. The protocol is
// the Store interface spelled as routes, a range of entries per round
// trip:
//
//	POST /entries/get   keys -> one frame per key: a record (hit) or empty (miss)
//	POST /entries/put   keys, each followed by its record -> 204
//	POST /invalidate    {"func_hashes": [...]} -> {"invalidated": n}
//	GET  /stats         store + request counters
//	GET  /healthz       liveness
//
// Entry bodies are binary, in the result codec's own framing: a key is
// its three components as length-prefixed strings (appendKey), and a
// record is an Encode payload framed the same way (appendFrame).
// The server derives every content address from the key components
// itself, so a client cannot store under an address other clients would
// trust for other inputs. (The payload itself is not proven against the
// key — the daemon is a shared cache for a mutually trusting fleet, not
// a defense against malicious replicas.) A put body is checked whole
// before anything is stored: a malformed frame, a record that fails the
// strict decode, or a canceled result rejects the body
// with a 400. An accepted record is stored, and later served, as the
// bytes it arrived as: the server never re-encodes. Counters stay per
// entry: a round trip of n keys is n gets or n puts.
type CacheServer struct {
	st      Store
	started time.Time

	// gets, getHits and puts count entries, not round trips: they feed
	// both /stats and entry_requests_total.
	gets        atomic.Int64
	getHits     atomic.Int64
	puts        atomic.Int64
	invalidates atomic.Int64
	badRequests atomic.Int64

	// metrics serves GET /metrics; nil until Register.
	metrics http.Handler

	// ro, once Observe was called, is the daemon chassis around the
	// cache routes: every request records a root-span fragment (attached
	// under the caller's X-Span-Id) in the chassis's trace store, which
	// the daemon serves back to a coordinating kserve on GET /trace/{id}
	// — requests sharing a trace id, a scan's entry round-trips, merge
	// into one fragment — plus the access-log line and the
	// request-latency histogram.
	ro *obs.RequestObserver
}

// NewCacheServer wraps st in the HTTP protocol. kcached passes its
// Stack, which is its segment log alone.
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
// exposed as callback series rather than double-counted.
func (cs *CacheServer) Register(reg *obs.Registry) {
	entries := reg.CounterVec("entry_requests_total",
		"Entry requests served, by operation and outcome.", "op", "outcome")
	for _, e := range []struct {
		op, outcome string
		n           func() int64
	}{
		{"get", "hit", cs.getHits.Load},
		{"get", "miss", func() int64 { return cs.gets.Load() - cs.getHits.Load() }},
		{"put", "stored", cs.puts.Load},
	} {
		entries.WithFunc(func() float64 { return float64(e.n()) }, e.op, e.outcome)
	}
	reg.CounterFunc("invalidate_requests_total",
		"POST /invalidate requests served.",
		func() float64 { return float64(cs.invalidates.Load()) })
	reg.CounterFunc("bad_requests_total",
		"Requests rejected before reaching the store (bad key, oversized or unparseable body).",
		func() float64 { return float64(cs.badRequests.Load()) })
	reg.GaugeFunc("store_entries", "Live entries in the backing store.",
		func() float64 { return float64(cs.st.Stats().Entries) })
	reg.GaugeFunc("store_bytes", "Serialized bytes of live entries in the backing store.",
		func() float64 { return float64(cs.st.Stats().Bytes) })
	if cs.ro != nil {
		cs.ro.Duration = reg.HistogramVec("request_duration_seconds",
			"Wall time of one cache-protocol request.", nil, "op")
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
	mux.HandleFunc("GET /stats", cs.handleStats)
	mux.HandleFunc("GET /healthz", cs.handleHealthz)
	if cs.metrics != nil {
		mux.Handle("GET /metrics", cs.metrics)
	}
	return mux
}

// readEntries reads and parses an entry-route body, answering an
// unreadable or oversized body, or one parseEntries refuses, with a 400
// itself (ok=false).
func (cs *CacheServer) readEntries(w http.ResponseWriter, r *http.Request, records bool) (keys []Key, ids []Digest, payloads [][]byte, ok bool) {
	data, err := io.ReadAll(io.LimitReader(r.Body, int64(maxEntryBytes)+1))
	bad := "body unreadable or too large"
	if err == nil && len(data) <= maxEntryBytes {
		keys, ids, payloads, bad = parseEntries(data, records)
	}
	if bad != "" {
		cs.badRequest(w, bad)
		return nil, nil, nil, false
	}
	return keys, ids, payloads, true
}

// badRequest answers a 400 whose body is {"error": msg}, encoded by
// encoding/json so that any msg leaves it valid JSON, and counts it.
func (cs *CacheServer) badRequest(w http.ResponseWriter, msg string) {
	cs.badRequests.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// parseEntries parses an entry-route body: at least one key, each
// followed by a record when records is set, or else names what is
// wrong. A key needs a function hash, and a record must pass the strict
// decode, so one buggy client cannot poison every replica's warm hits —
// and a canceled result has no record at all. Each payload
// is a copy of its record, so a stored entry never pins the body it came
// in.
func parseEntries(data []byte, records bool) (keys []Key, ids []Digest, payloads [][]byte, bad string) {
	d := &codecReader{buf: data}
	var scratch engine.Result
	// Each distinct rider of the body, by its framed (CheckerFP,
	// EngineFP) bytes — one encoding per pair, as lengths are minimal
	// uvarints — so a key allocates only its function hash and hashes
	// only its function half. A map, not a short list: a cold batch's put
	// body cycles through all its checkers function by function, and a
	// body of distinct riders must parse in linear time.
	type rider struct {
		checkerFP, engineFP string
		part                Half
	}
	riders := map[string]rider{}
	for len(d.buf) > 0 {
		funcHash := d.string()
		rest := d.buf
		d.frame()
		d.frame()
		if d.err != nil || funcHash == "" {
			return nil, nil, nil, "malformed key, or no function hash"
		}
		framed := rest[:len(rest)-len(d.buf)]
		r, ok := riders[string(framed)]
		if !ok {
			rd := &codecReader{buf: framed}
			r.checkerFP, r.engineFP = rd.string(), rd.string()
			r.part = RiderPart(r.checkerFP, r.engineFP)
			riders[string(framed)] = r
		}
		keys = append(keys, Key{FuncHash: funcHash, CheckerFP: r.checkerFP, EngineFP: r.engineFP})
		ids = append(ids, PairDigest(FuncPart(funcHash), r.part))
		if !records {
			continue
		}
		rec := d.frame()
		if DecodeInto(&scratch, rec) != nil {
			return nil, nil, nil, "record is not an encoded engine.Result"
		}
		payloads = append(payloads, bytes.Clone(rec))
	}
	if len(keys) == 0 {
		return nil, nil, nil, "no entries"
	}
	return keys, ids, payloads, ""
}

// handleGet answers a range of keys in one reply, in key order, framing
// the payloads the store returned as they are. The reply stays within
// maxEntryBytes too: a hit that would cross it is answered as a miss
// (every later frame costs at least a byte).
func (cs *CacheServer) handleGet(w http.ResponseWriter, r *http.Request) {
	keys, ids, _, ok := cs.readEntries(w, r, false)
	if !ok {
		return
	}
	out := make([][]byte, len(keys))
	cs.st.GetMany(r.Context(), keys, ids, out)
	var reply []byte
	hits := 0
	for i, rec := range out {
		if len(reply)+binary.MaxVarintLen64+len(rec)+len(out)-i > maxEntryBytes {
			rec = nil
		}
		if rec != nil {
			hits++
		}
		reply = appendFrame(reply, rec)
	}
	cs.getHits.Add(int64(hits))
	cs.gets.Add(int64(len(keys)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(reply)
}

// handlePut stores a range of records, all or none.
func (cs *CacheServer) handlePut(w http.ResponseWriter, r *http.Request) {
	keys, ids, payloads, ok := cs.readEntries(w, r, true)
	if !ok {
		return
	}
	cs.st.PutMany(r.Context(), keys, ids, payloads)
	cs.puts.Add(int64(len(keys)))
	w.WriteHeader(http.StatusNoContent)
}

func (cs *CacheServer) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	var req invalidateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, int64(maxEntryBytes))).Decode(&req); err != nil {
		cs.badRequest(w, "bad JSON: "+err.Error())
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
	// TraceStore is the chassis's trace store, present once Observe
	// mounted one.
	TraceStore *obs.TraceStoreStats `json:"trace_store,omitempty"`
}

func (cs *CacheServer) handleStats(w http.ResponseWriter, r *http.Request) {
	st := cs.st.Stats()
	stats := CacheServerStats{
		UptimeSeconds: time.Since(cs.started).Seconds(),
		Store:         st,
		StoreHitRate:  st.HitRate(),
		Gets:          cs.gets.Load(),
		Puts:          cs.puts.Load(),
		Invalidates:   cs.invalidates.Load(),
		BadRequests:   cs.badRequests.Load(),
	}
	if cs.ro != nil {
		ts := cs.ro.Traces.Stats()
		stats.TraceStore = &ts
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(stats)
}

func (cs *CacheServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"ok": true, "entries": cs.st.Stats().Entries})
}
