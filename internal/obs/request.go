package obs

import (
	"encoding/json"
	"log"
	"net/http"
	"strconv"
	"time"
)

// RequestObserver is the outermost per-request middleware of both
// daemons. For every wrapped request it mints the trace (honoring an
// inbound X-Trace-Id / X-Span-Id, so a coordinating peer's sub-request
// joins the caller's span tree), carries it on the context where the
// scheduler, the scatter fan-out and the remote tier pick it up, stamps
// X-Trace-Id on the response before the handler runs (error envelopes
// and admission sheds repeat it), records the HTTP metrics, closes the
// root span, offers the finished trace to the tail-sampled store, and
// writes the access-log line — one grep for a trace id joins both
// daemons' logs.
//
// It wraps OUTSIDE any admission gate, so queue wait is part of the
// measured request: the latency the client saw.
//
// A nil *RequestObserver wraps nothing, so a handler set mounted
// without the chassis (an in-process cache server under a probe) pays
// nothing for it.
type RequestObserver struct {
	// Service names this process in span trees and log lines.
	Service string
	// Traces is offered every finished trace (nil retains none).
	Traces *TraceStore
	// Requests counts requests by route and status class; Duration
	// times them by route, with the trace id as the bucket exemplar.
	// Either may be nil.
	Requests *CounterVec
	Duration *HistogramVec
	// Slow, when > 0, adds the slow-request report (trace id + span
	// timeline) for requests that took at least this long.
	Slow time.Duration
}

// Wrap observes h under the given route label. A 4xx or 5xx reply tags
// the root span with its status class and counts as errored for the
// keep policy.
func (o *RequestObserver) Wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	if o == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := NewTraceFor(o.Service, r.Header.Get(TraceHeader), r.Header.Get(SpanHeader))
		w.Header().Set(TraceHeader, tr.ID)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(WithTrace(r.Context(), tr)))
		elapsed := time.Since(start)

		class := statusClass(sw.code)
		if o.Requests != nil {
			o.Requests.With(route, class).Inc()
		}
		if o.Duration != nil {
			o.Duration.With(route).ObserveExemplar(elapsed.Seconds(), tr.ID)
		}
		errored := sw.code >= 400
		status := ""
		if errored {
			status = class
		}
		tr.CloseRoot(route, status, elapsed)
		o.Traces.Add(tr, TraceMeta{Route: route, Status: sw.code, Elapsed: elapsed, Errored: errored})

		ms := float64(elapsed.Microseconds()) / 1000
		log.Printf("%s: %s %s %d %dB %.3fms trace=%s",
			o.Service, r.Method, r.URL.Path, sw.code, sw.bytes, ms, tr.ID)
		if o.Slow > 0 && elapsed >= o.Slow {
			// The triage line: the trace id feeds straight into
			// GET /trace/{id} — see README § Observability.
			log.Printf("%s: slow request: route=%s trace=%s elapsed=%.1fms threshold=%s timeline=[%s]",
				o.Service, route, tr.ID, ms, o.Slow, tr)
		}
	}
}

// statusClass buckets a status code for the request counter's label and
// the root span's status: per-code series would be unbounded in
// principle and useless in practice; dashboards care about
// 2xx/4xx/5xx/429.
func statusClass(code int) string {
	switch {
	case code == http.StatusTooManyRequests:
		return "429"
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// statusWriter captures the response code and size for the metrics and
// the access log.
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

// ServeTrace answers GET /trace/{id} with this process's own retained
// fragment (the StoredTrace wire shape) and never fans out: it is the
// whole of kcached's endpoint — a leaf of every request tree — and the
// ?local=1 form kserve replicas ask each other.
func (ts *TraceStore) ServeTrace(w http.ResponseWriter, r *http.Request) {
	if ts == nil {
		writeError(w, "unavailable", "tracing disabled (-trace-retain 0)")
		return
	}
	st, ok := ts.Get(r.PathValue("id"))
	if !ok {
		writeError(w, "not_found", "trace not retained here (sampled out, evicted, or never existed)")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// ServeList answers GET /traces: the local retained-trace index, newest
// first. ?limit=N bounds it (default 50, also for an unparsable N);
// ?slow=1 restricts it to traces kept by the slow class — the "what was
// slow lately" triage listing.
func (ts *TraceStore) ServeList(w http.ResponseWriter, r *http.Request) {
	if ts == nil {
		writeError(w, "unavailable", "tracing disabled (-trace-retain 0)")
		return
	}
	q := r.URL.Query()
	limit, _ := strconv.Atoi(q.Get("limit"))
	writeJSON(w, http.StatusOK, map[string]any{"traces": ts.List(limit, q.Get("slow") == "1")})
}

// writeError answers 404 with the daemons' error envelope shape
// ({"error": {"code", "message"}}); both trace endpoints only ever fail
// with "nothing here".
func writeError(w http.ResponseWriter, code, msg string) {
	writeJSON(w, http.StatusNotFound, map[string]any{"error": map[string]string{"code": code, "message": msg}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("obs: encode response: %v", err)
	}
}
