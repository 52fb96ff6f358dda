package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one request's span tree fragment: the spans this process
// recorded for the request, rooted at a per-request root span. kserve
// and kcached each mint one per request (honoring an inbound
// X-Trace-Id / X-Span-Id pair), thread it through the work via context,
// and forward both ids on every outbound hop — scatter sub-scans,
// /converge nudges, feed round-trips, and remote-store calls — so each
// process's fragment attaches under the caller's span and GET
// /trace/{id} can reassemble the cross-host tree.
//
// Spans are aggregates, not raw events: a scan's cache-probe span is the
// summed probe time across all workers with Count = number of probes.
// That keeps a 10k-function scan's timeline at a handful of rows while
// still answering the triage question ("which stage ate the budget?").
type Trace struct {
	// ID is the request's trace id, propagated on X-Trace-Id.
	ID string
	// SpanID is the root span's id: every span this process records
	// attaches under it, and outbound sub-requests carry it (or a
	// pre-minted child span id) as X-Span-Id.
	SpanID string
	// ParentSpanID is the inbound X-Span-Id — the caller's span this
	// fragment's root attaches under. Empty at the trace's origin.
	ParentSpanID string
	// Service names the process recording this fragment ("kserve-2",
	// "kcached").
	Service string
	// Start anchors span offsets.
	Start time.Time

	mu       sync.Mutex
	spans    []Span
	seq      int
	dropped  int
	degraded bool
}

// Span is one node of a trace: name, offset from its process's request
// start, duration, and how many operations the aggregate covers.
type Span struct {
	// SpanID identifies the span within the trace; ParentID is the span
	// it attaches under (a span in another process for fragment roots).
	SpanID   string `json:"span_id,omitempty"`
	ParentID string `json:"parent_id,omitempty"`
	// Service is the process that recorded the span.
	Service string `json:"service,omitempty"`
	// Root marks the fragment's per-request root span: its OffsetMS is
	// relative to its own request's start (always 0), so cross-host
	// assembly rebases it onto its parent span's offset instead of
	// trusting cross-host clocks.
	Root bool   `json:"root,omitempty"`
	Name string `json:"name"`
	// OffsetMS is when the span began, relative to the fragment's start.
	OffsetMS float64 `json:"offset_ms"`
	// DurMS is the span's duration — summed across workers for
	// concurrent stages, so it can exceed the request's wall time.
	DurMS float64 `json:"dur_ms"`
	// Count is the number of operations aggregated into the span (0
	// means one, for plain stages).
	Count int `json:"count,omitempty"`
	// Status tags abnormal outcomes (SpanDegraded, or an HTTP status
	// class on error roots); empty on the happy path.
	Status string `json:"status,omitempty"`
}

// SpanDegraded is the status tag of a scatter partition recomputed on
// the coordinator's local snapshot after its shard failed.
const SpanDegraded = "degraded_local_fallback"

// MaxTraceSpans caps one trace fragment's span count so a pathological
// 100k-function scan (or a kcached fragment accumulating one root span
// per entry round-trip) cannot balloon request memory. Spans past the
// cap are counted, not stored.
const MaxTraceSpans = 512

// droppedSpans counts spans dropped by the cap, process-wide; daemons
// bridge it into their registries as trace_spans_dropped_total.
var droppedSpans atomic.Uint64

// DroppedSpansTotal reports spans dropped by the per-trace cap since
// process start.
func DroppedSpansTotal() uint64 { return droppedSpans.Load() }

// idCounter backs the fallback id path when crypto/rand fails.
var idCounter atomic.Uint64

// randomID mints a 16-hex-char id. If crypto/rand fails (fd exhaustion,
// a broken sandbox) it falls back to a monotonic-counter-derived id
// instead of silently returning a zeroed buffer — duplicate ids would
// cross-link unrelated requests in the trace store.
func randomID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint32(b[:4], uint32(time.Now().UnixNano()))
		binary.BigEndian.PutUint32(b[4:], uint32(idCounter.Add(1)))
	}
	return hex.EncodeToString(b[:])
}

// NewTraceFor returns a trace of service anchored at now with a fresh
// root span id, honoring an inbound parent span id — the form the
// daemons' request middleware uses. An empty id gets a fresh random one
// — 16 hex chars, unique enough for stitching within a fleet's
// retention window.
func NewTraceFor(service, id, parentSpanID string) *Trace {
	if id == "" {
		id = randomID()
	}
	return &Trace{
		ID:           sanitizeID(id),
		SpanID:       randomID(),
		ParentSpanID: sanitizeID(parentSpanID),
		Service:      service,
		Start:        time.Now(),
	}
}

// sanitizeID bounds an inbound trace or span id so a hostile client
// cannot inject log lines or megabytes through the header: printable
// non-space ASCII only, max 64 chars.
func sanitizeID(id string) string {
	if len(id) > 64 {
		id = id[:64]
	}
	return strings.Map(func(r rune) rune {
		if r <= ' ' || r > '~' {
			return '_'
		}
		return r
	}, id)
}

// Observe appends a span: a stage named name that began at start, ran
// for d, and covered count operations. It attaches under the root span
// with a derived child span id. Safe for concurrent use.
func (t *Trace) Observe(name string, start time.Time, d time.Duration, count int) {
	t.ObserveWith("", name, "", start, d, count)
}

// ObserveWith is Observe with a pre-minted span id (from NewChildSpanID,
// so the id could be propagated to a callee before the span completed;
// "" derives one) and an outcome status tag ("" for none).
func (t *Trace) ObserveWith(spanID, name, status string, start time.Time, d time.Duration, count int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if spanID == "" {
		spanID = t.childIDLocked()
	}
	t.appendLocked(Span{
		SpanID:   spanID,
		ParentID: t.SpanID,
		Service:  t.Service,
		Name:     name,
		OffsetMS: float64(start.Sub(t.Start).Microseconds()) / 1000,
		DurMS:    float64(d.Microseconds()) / 1000,
		Count:    count,
		Status:   status,
	})
	t.mu.Unlock()
}

// NewChildSpanID reserves a child span id under the root — minted
// before an outbound sub-request so the callee's fragment can attach
// under the span that is still in flight. Returns "" on a nil trace.
func (t *Trace) NewChildSpanID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	id := t.childIDLocked()
	t.mu.Unlock()
	return id
}

// childIDLocked derives the next child span id from the root id and a
// sequence number: unique within the fragment (the root id is random per
// process), readable in a waterfall, and free of a rand syscall on the
// hot path. Callers hold t.mu.
func (t *Trace) childIDLocked() string {
	t.seq++
	return fmt.Sprintf("%s.%d", t.SpanID, t.seq)
}

// appendLocked appends sp, enforcing MaxTraceSpans. Callers hold t.mu.
func (t *Trace) appendLocked(sp Span) {
	if len(t.spans) >= MaxTraceSpans {
		t.dropped++
		droppedSpans.Add(1)
		return
	}
	t.spans = append(t.spans, sp)
}

// CloseRoot records the fragment's root span: the whole request, offset
// 0, attached under the inbound parent span (if any). Call once, when
// the request completes. The root bypasses the span cap so a capped
// fragment still assembles.
func (t *Trace) CloseRoot(name, status string, d time.Duration) {
	if t == nil {
		return
	}
	sp := Span{
		SpanID:   t.SpanID,
		ParentID: t.ParentSpanID,
		Service:  t.Service,
		Root:     true,
		Name:     name,
		DurMS:    float64(d.Microseconds()) / 1000,
		Status:   status,
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// MarkDegraded flags the trace as having degraded a scatter partition
// to the local snapshot, an always-keep class for the tail sampler.
func (t *Trace) MarkDegraded() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.degraded = true
	t.mu.Unlock()
}

// Degraded reports the flag set by MarkDegraded.
func (t *Trace) Degraded() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.degraded
}

// DroppedSpans reports how many spans the cap dropped from this trace.
func (t *Trace) DroppedSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans returns a snapshot of the fragment in observation order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// String renders the timeline as one log-friendly line:
// "parse=1.2ms cache_probe=3.4ms/120 engine_eval=56.7ms/3".
func (t *Trace) String() string {
	var b strings.Builder
	for i, sp := range t.Spans() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.3fms", sp.Name, sp.DurMS)
		if sp.Count > 0 {
			fmt.Fprintf(&b, "/%d", sp.Count)
		}
	}
	return b.String()
}

// traceKey is the context key for the request's trace; spanKey carries
// the parent span id for one outbound sub-request (when it should be a
// specific child span rather than the root).
type (
	traceKey struct{}
	spanKey  struct{}
)

// WithTrace returns ctx carrying t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil. Safe on a nil
// context.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// WithParentSpan returns ctx carrying spanID as the parent for outbound
// requests made under it — the scatter path pins each shard
// sub-request's fragment under its own shard_N span this way.
func WithParentSpan(ctx context.Context, spanID string) context.Context {
	return context.WithValue(ctx, spanKey{}, spanID)
}

// ParentSpanFrom returns the outbound parent span id carried by ctx, or
// "".
func ParentSpanFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(spanKey{}).(string)
	return id
}

// InjectHeaders stamps h with the trace id and parent span id carried
// by ctx — the one call every outbound hop (scatter sub-scan, feed
// round-trip, remote-store call, converge nudge) makes so the callee's
// fragment attaches under the caller's span.
func InjectHeaders(ctx context.Context, h http.Header) {
	tr := TraceFrom(ctx)
	if tr == nil || tr.ID == "" {
		return
	}
	h.Set(TraceHeader, tr.ID)
	if sid := ParentSpanFrom(ctx); sid != "" {
		h.Set(SpanHeader, sid)
	} else if tr.SpanID != "" {
		h.Set(SpanHeader, tr.SpanID)
	}
}

// TraceHeader is the HTTP header carrying the trace id between kserve
// and kcached (and honored from clients). SpanHeader carries the
// caller's span id on the same hops, so the callee's fragment attaches
// under the right node of the tree.
const (
	TraceHeader = "X-Trace-Id"
	SpanHeader  = "X-Span-Id"
)
