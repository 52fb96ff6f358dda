package obs

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceStore is the in-process half of fleet tracing: a bounded ring of
// recently completed trace fragments, tail-sampled — the keep decision
// happens AFTER the request finishes, when its outcome is known. Slow,
// errored, and degraded-scatter traces are always retained (they are
// exactly what an operator greps for); the unremarkable rest
// is sampled by a deterministic hash of the trace id, so every process
// in the fleet keeps or drops the SAME traces and cross-host assembly
// finds all fragments or none.
type TraceStore struct {
	capN   int
	sample float64
	slow   time.Duration

	mu    sync.Mutex
	byID  map[string]*StoredTrace
	order []string // insertion order, oldest first

	kept       atomic.Int64
	sampledOut atomic.Int64
	evicted    atomic.Int64
}

// TraceMeta is what the request middleware knows about a finished
// request when it offers the trace to the store.
type TraceMeta struct {
	// Route is the request's route label ("scan", "get", ...).
	Route string
	// Status is the HTTP status sent.
	Status int
	// Elapsed is the request's wall time.
	Elapsed time.Duration
	// Errored marks the request as an error for the keep policy: any
	// 4xx/5xx (a cache miss is part of a 200 reply, not a status).
	Errored bool
}

// StoredTrace is one retained fragment: the request's identity, outcome,
// why it was kept, and its spans. It is also the GET /trace/{id}?local=1
// wire format between replicas.
type StoredTrace struct {
	TraceID string `json:"trace_id"`
	Service string `json:"service"`
	Route   string `json:"route"`
	Status  int    `json:"status"`
	// Kept records the keep-policy reason: "slow", "error", "degraded",
	// or "sampled".
	Kept        string  `json:"kept"`
	StartUnixMS int64   `json:"start_unix_ms"`
	DurMS       float64 `json:"dur_ms"`
	// DroppedSpans counts spans the per-trace cap dropped.
	DroppedSpans int    `json:"dropped_spans,omitempty"`
	Spans        []Span `json:"spans"`
}

// TraceSummary is one GET /traces index row.
type TraceSummary struct {
	TraceID     string  `json:"trace_id"`
	Service     string  `json:"service"`
	Route       string  `json:"route"`
	Status      int     `json:"status"`
	Kept        string  `json:"kept"`
	StartUnixMS int64   `json:"start_unix_ms"`
	DurMS       float64 `json:"dur_ms"`
	Spans       int     `json:"spans"`
}

// TraceStoreStats is the /stats view of the store.
type TraceStoreStats struct {
	Entries    int     `json:"entries"`
	Capacity   int     `json:"capacity"`
	SampleRate float64 `json:"sample_rate"`
	Kept       int64   `json:"kept"`
	SampledOut int64   `json:"sampled_out"`
	Evicted    int64   `json:"evicted"`
}

// NewTraceStore returns a store retaining up to capN traces, sampling
// unremarkable ones with probability sample (clamped to [0,1]), and
// always keeping traces at least slow long (0 disables the slow class).
// capN <= 0 returns nil — every method is nil-safe, so a disabled store
// needs no call-site guards.
func NewTraceStore(capN int, sample float64, slow time.Duration) *TraceStore {
	if capN <= 0 {
		return nil
	}
	if sample < 0 {
		sample = 0
	}
	if sample > 1 {
		sample = 1
	}
	return &TraceStore{capN: capN, sample: sample, slow: slow, byID: map[string]*StoredTrace{}}
}

// sampledIn decides the probabilistic keep for an unremarkable trace by
// hashing its id — deterministic, so every replica and kcached make the
// same call for the same trace and assembly is all-or-nothing.
func (ts *TraceStore) sampledIn(id string) bool {
	if ts.sample >= 1 {
		return true
	}
	if ts.sample <= 0 {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return float64(h.Sum64()>>11)/float64(uint64(1)<<53) < ts.sample
}

// keepReason classifies a finished trace: the always-keep classes in
// priority order, then the deterministic sample, then "".
func (ts *TraceStore) keepReason(tr *Trace, m TraceMeta) string {
	switch {
	case ts.slow > 0 && m.Elapsed >= ts.slow:
		return "slow"
	case m.Errored:
		return "error"
	case tr.Degraded():
		return "degraded"
	case ts.sampledIn(tr.ID):
		return "sampled"
	}
	return ""
}

// Add offers a completed trace to the store. A trace id already present
// merges its spans into the existing entry (kcached sees one request
// per entry round-trip, all sharing the scan's trace id — the fragment
// is their union, capped at MaxTraceSpans). Safe for concurrent use.
func (ts *TraceStore) Add(tr *Trace, m TraceMeta) {
	if ts == nil || tr == nil || tr.ID == "" {
		return
	}
	spans := tr.Spans()
	dropped := tr.DroppedSpans()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if st, ok := ts.byID[tr.ID]; ok {
		for _, sp := range spans {
			if len(st.Spans) >= MaxTraceSpans {
				st.DroppedSpans++
				droppedSpans.Add(1)
				continue
			}
			st.Spans = append(st.Spans, sp)
		}
		st.DroppedSpans += dropped
		return
	}
	reason := ts.keepReason(tr, m)
	if reason == "" {
		ts.sampledOut.Add(1)
		return
	}
	ts.kept.Add(1)
	ts.byID[tr.ID] = &StoredTrace{
		TraceID:      tr.ID,
		Service:      tr.Service,
		Route:        m.Route,
		Status:       m.Status,
		Kept:         reason,
		StartUnixMS:  tr.Start.UnixMilli(),
		DurMS:        float64(m.Elapsed.Microseconds()) / 1000,
		DroppedSpans: dropped,
		Spans:        spans,
	}
	ts.order = append(ts.order, tr.ID)
	for len(ts.order) > ts.capN {
		old := ts.order[0]
		ts.order = ts.order[1:]
		delete(ts.byID, old)
		ts.evicted.Add(1)
	}
}

// Get returns a copy of the stored fragment for id, if retained.
func (ts *TraceStore) Get(id string) (*StoredTrace, bool) {
	if ts == nil {
		return nil, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	st, ok := ts.byID[id]
	if !ok {
		return nil, false
	}
	cp := *st
	cp.Spans = append([]Span(nil), st.Spans...)
	return &cp, true
}

// List returns up to limit summaries, newest first. slowOnly restricts
// the index to traces kept by the slow class.
func (ts *TraceStore) List(limit int, slowOnly bool) []TraceSummary {
	if ts == nil {
		return nil
	}
	if limit <= 0 {
		limit = 50
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]TraceSummary, 0, min(limit, len(ts.order)))
	for i := len(ts.order) - 1; i >= 0 && len(out) < limit; i-- {
		st := ts.byID[ts.order[i]]
		if st == nil || (slowOnly && st.Kept != "slow") {
			continue
		}
		out = append(out, TraceSummary{
			TraceID:     st.TraceID,
			Service:     st.Service,
			Route:       st.Route,
			Status:      st.Status,
			Kept:        st.Kept,
			StartUnixMS: st.StartUnixMS,
			DurMS:       st.DurMS,
			Spans:       len(st.Spans),
		})
	}
	return out
}

// Stats snapshots the store's counters for /stats.
func (ts *TraceStore) Stats() *TraceStoreStats {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	entries := len(ts.byID)
	ts.mu.Unlock()
	return &TraceStoreStats{
		Entries:    entries,
		Capacity:   ts.capN,
		SampleRate: ts.sample,
		Kept:       ts.kept.Load(),
		SampledOut: ts.sampledOut.Load(),
		Evicted:    ts.evicted.Load(),
	}
}

// Register bridges the store's counters into reg (no-op on a nil
// store): trace_store_{kept,sampled_out,evicted}_total, the live entry
// gauge, and the process-wide dropped-span counter.
func (ts *TraceStore) Register(reg *Registry) {
	if ts == nil {
		return
	}
	reg.CounterFunc("trace_store_kept_total",
		"Completed traces retained by the tail sampler (always-keep classes + sampled).",
		func() float64 { return float64(ts.kept.Load()) })
	reg.CounterFunc("trace_store_sampled_out_total",
		"Completed traces dropped by the probabilistic sampler (no always-keep class applied).",
		func() float64 { return float64(ts.sampledOut.Load()) })
	reg.CounterFunc("trace_store_evicted_total",
		"Retained traces evicted by the ring bound (-trace-retain).",
		func() float64 { return float64(ts.evicted.Load()) })
	reg.GaugeFunc("trace_store_entries", "Traces currently retained.",
		func() float64 {
			ts.mu.Lock()
			defer ts.mu.Unlock()
			return float64(len(ts.byID))
		})
	reg.CounterFunc("trace_spans_dropped_total",
		"Spans discarded by the per-trace span cap (process-wide).",
		func() float64 { return float64(DroppedSpansTotal()) })
}
