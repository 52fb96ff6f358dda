package main

import (
	"context"
	"log"
	"net/http"
	"time"

	"knighter/internal/engine"
	"knighter/internal/obs"
	"knighter/internal/scan"
)

// serverMetrics holds kserve's /metrics instrumentation: HTTP-level
// request counters and latency, the scan-level duration histogram, the
// per-stage scan breakdown, and counter/gauge funcs over state that
// already exists as atomics elsewhere (service counters, admission
// gate, engine abort counters, remote-tier breaker). The store tiers
// register their own families in store.NewStack before this runs.
type serverMetrics struct {
	reg      *obs.Registry
	httpReqs *obs.CounterVec
	httpDur  *obs.HistogramVec
	scanDur  *obs.Histogram
	stageDur *obs.HistogramVec
	gcSweep  *obs.Histogram
	commit   *obs.Histogram
}

// registerMetrics wires the server's observable state into reg and
// installs the per-scan stage observer. Call once at boot, after the
// store composition is built and before serving.
func (s *server) registerMetrics(reg *obs.Registry) {
	m := &serverMetrics{
		reg: reg,
		httpReqs: reg.CounterVec("http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		httpDur: reg.HistogramVec("http_request_duration_seconds",
			"Wall time of one HTTP request, queueing included.", nil, "route"),
		scanDur: reg.Histogram("scan_duration_seconds",
			"Wall time of one checker scan over the corpus (each batch entry counts once).", nil),
		stageDur: reg.HistogramVec("scan_stage_duration_seconds",
			"Aggregate time in one scan stage per scan; concurrent stages sum worker time.",
			nil, "stage"),
		gcSweep: reg.Histogram("disk_gc_sweep_duration_seconds",
			"Wall time of one disk-tier GC sweep.", nil),
		commit: reg.Histogram("changeset_commit_duration_seconds",
			"Wall time from mutation request to committed generation swap.", nil),
	}
	s.metrics = m
	s.inc.SetStageObserver(m)

	reg.CounterFunc("scans_total", "Checker scans served (batch entries count individually).",
		func() float64 { return float64(s.scans.Load()) })
	reg.CounterFunc("scan_errors_total", "Requests rejected before scanning (bad JSON, bad checker, unknown file).",
		func() float64 { return float64(s.scanErrors.Load()) })
	reg.CounterFunc("scans_canceled_total", "Scans aborted by client disconnect.",
		func() float64 { return float64(s.scansCanceled.Load()) })
	reg.CounterFunc("reports_served_total", "Bug reports returned across all scans.",
		func() float64 { return float64(s.reportsServed.Load()) })
	reg.CounterFunc("corpus_mutations_total", "Corpus mutations applied (patches + changesets).",
		func() float64 { return float64(s.patches.Load() + s.changesets.Load()) })
	reg.GaugeFunc("corpus_generation", "Corpus generation counter; bumps once per mutation.",
		func() float64 { return float64(s.inc.Codebase().Generation()) })
	reg.GaugeFunc("corpus_pinned_snapshots", "Superseded snapshot generations still pinned by in-flight scans.",
		func() float64 { return float64(s.inc.Codebase().PinnedSnapshots()) })
	reg.CounterFunc("async_changesets_total", "Changesets accepted on the async path (generation token returned before commit).",
		func() float64 { return float64(s.asyncChangesets.Load()) })
	reg.CounterFunc("disk_gc_removed_total", "Disk-tier entries removed by GC sweeps.",
		func() float64 { return float64(s.gcRemoved.Load()) })

	// Engine abort counters: process-wide, surfaced here because kserve
	// is the process. A warm corpus whose engine_timeouts_total is
	// climbing has a pathological function re-timing-out on every scan —
	// invisible in hit rates, obvious here.
	reg.CounterFunc("engine_timeouts_total", "Per-function analyses cut short by the time budget.",
		func() float64 { return float64(engine.CounterTotals().Timeouts) })
	reg.CounterFunc("engine_cancels_total", "Per-function analyses aborted by request cancellation.",
		func() float64 { return float64(engine.CounterTotals().Cancels) })
	reg.CounterFunc("engine_crashes_total", "Checker panics recovered into runtime errors.",
		func() float64 { return float64(engine.CounterTotals().Crashes) })

	if s.remote != nil {
		// Breaker state as a gauge: 0 closed (healthy), 1 open (shedding
		// to the next tier).
		reg.GaugeFunc("remote_breaker_state", "Fleet-tier circuit breaker: 0 closed, 1 open.",
			func() float64 {
				if s.remote.RemoteStats().BreakerOpen {
					return 1
				}
				return 0
			})
		reg.CounterFunc("remote_breaker_opens_total", "Times the fleet-tier breaker tripped open.",
			func() float64 { return float64(s.remote.RemoteStats().BreakerOpens) })
	}
	s.adm.register(reg, "admission")
	s.wadm.register(reg, "write_admission")
	s.registerShardMetrics(reg)
	s.traces.Register(reg)
	if s.traces != nil {
		reg.CounterFunc("trace_spans_dropped_total",
			"Spans discarded by the per-trace span cap (process-wide).",
			func() float64 { return float64(obs.DroppedSpansTotal()) })
	}
	obs.RegisterBuildInfo(reg, func() float64 { return time.Since(s.started).Seconds() })
}

// ObserveStage implements scan.StageObserver onto the stage histogram.
func (m *serverMetrics) ObserveStage(stage string, d time.Duration) {
	m.stageDur.With(stage).Observe(d.Seconds())
}

// observeScan records one finished scan (no-op without metrics). The
// request's trace id rides along as the scan histogram's exemplar, so a
// bucket spike on the dashboard links straight to a retained trace.
func (s *server) observeScan(ctx context.Context, res *scan.Result) {
	if s.metrics == nil {
		return
	}
	if tr := obs.TraceFrom(ctx); tr != nil {
		s.metrics.scanDur.ObserveExemplar(res.Elapsed.Seconds(), tr.ID)
		return
	}
	s.metrics.scanDur.Observe(res.Elapsed.Seconds())
}

// observeCommit records one committed corpus mutation — request arrival
// to generation swap (no-op without metrics).
func (s *server) observeCommit(d time.Duration) {
	if s.metrics != nil {
		s.metrics.commit.Observe(d.Seconds())
	}
}

// observeGCSweep records one disk GC sweep (no-op without metrics).
func (s *server) observeGCSweep(d time.Duration) {
	if s.metrics != nil {
		s.metrics.gcSweep.Observe(d.Seconds())
	}
}

// withObs is the outermost per-request middleware: it mints the
// request's trace (honoring an inbound X-Trace-Id / X-Span-Id so a
// coordinating peer's sub-scan joins the caller's span tree), carries
// it on the context where the scheduler, the scatter fan-out, and the
// remote tier pick it up, records the HTTP-level metrics, writes the
// access log line, emits the slow-request report when the request
// outlives -slow-scan, and offers the finished trace to the
// tail-sampled trace store.
//
// It wraps OUTSIDE the admission gate so queue wait is part of the
// request's measured life — the latency the client actually saw.
func (s *server) withObs(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := obs.NewTraceFor(s.serviceName(), r.Header.Get(obs.TraceHeader), r.Header.Get(obs.SpanHeader))
		w.Header().Set(obs.TraceHeader, tr.ID)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(obs.WithTrace(r.Context(), tr)))
		elapsed := time.Since(start)
		if s.metrics != nil {
			s.metrics.httpReqs.With(route, statusClass(sw.code)).Inc()
			s.metrics.httpDur.With(route).ObserveExemplar(elapsed.Seconds(), tr.ID)
		}
		status := ""
		if sw.code >= 400 {
			status = statusClass(sw.code)
		}
		tr.CloseRoot(route, status, elapsed)
		s.traces.Add(tr, obs.TraceMeta{
			Route:   route,
			Status:  sw.code,
			Elapsed: elapsed,
			Errored: sw.code >= 400,
		})
		s.logf("%s %s %d %dB %.3fms trace=%s",
			r.Method, r.URL.Path, sw.code, sw.bytes,
			float64(elapsed.Microseconds())/1000, tr.ID)
		if s.slowScan > 0 && elapsed >= s.slowScan {
			// The triage line: the trace id here feeds straight into
			// GET /trace/{id}, which returns the assembled cross-host
			// span tree (this host's stages plus every shard's and
			// kcached's fragments) — see README § Observability.
			s.logf("slow request: route=%s trace=%s elapsed=%.1fms threshold=%s timeline=[%s]",
				route, tr.ID, float64(elapsed.Microseconds())/1000, s.slowScan, tr)
		}
	}
}

// logf writes to the server's access logger (injectable for tests).
func (s *server) logf(format string, args ...any) {
	if s.accessLog != nil {
		s.accessLog.Printf(format, args...)
		return
	}
	log.Printf("kserve: "+format, args...)
}

// statusClass buckets a status code for the http_requests_total label —
// per-code series would be unbounded in principle and useless in
// practice; the dashboards care about 2xx/4xx/5xx/429.
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

// statusWriter captures the response code and size for logging and the
// per-code counter.
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
