package serve

import (
	"time"

	"knighter/internal/engine"
	"knighter/internal/obs"
)

// metrics are the service's own instruments. Each counter exists once,
// in the replica's registry: handlers add to it, /metrics exposes it
// and /stats reads it back through count. The store tiers, the gates,
// the shard layer, the trace store and the request observer register
// theirs where they are built.
type metrics struct {
	scans         *obs.Counter
	batches       *obs.Counter
	changesets    *obs.Counter
	scanErrors    *obs.Counter
	scansCanceled *obs.Counter
	reportsServed *obs.Counter
	quietResults  *obs.Counter
	gcRemoved     *obs.Counter

	scanDur  *obs.Histogram
	stageDur *obs.HistogramVec
	gcSweep  *obs.Histogram
	commit   *obs.Histogram
}

// count reads a counter the way /stats reports it.
func count(c *obs.Counter) int64 { return int64(c.Value()) }

// instrument creates the service instruments, installs the
// per-scan stage observer, and bridges state that lives elsewhere
// (corpus generation, engine abort counters, remote-tier breaker).
func (s *Server) instrument() {
	reg := s.reg
	s.m = metrics{
		scans:         reg.Counter("scans_total", "Checker scans served (batch entries count individually)."),
		batches:       reg.Counter("batches_total", "Batch requests served."),
		changesets:    reg.Counter("corpus_mutations_total", "Changesets committed to the corpus."),
		scanErrors:    reg.Counter("scan_errors_total", "Requests rejected before scanning (bad JSON, bad checker, unknown file)."),
		scansCanceled: reg.Counter("scans_canceled_total", "Scans aborted by client disconnect."),
		reportsServed: reg.Counter("reports_served_total", "Bug reports returned across all scans."),
		quietResults:  reg.Counter("scan_quiet_results_total", "Cache misses answered from the function's no-checker baseline, unexplored: every checker was quiet on it."),
		gcRemoved:     reg.Counter("disk_gc_removed_total", "Disk-tier entries removed by GC sweeps."),

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
	s.inc.SetStageObserver(&s.m)

	cb := s.inc.Codebase()
	reg.GaugeFunc("corpus_generation", "Corpus generation counter; bumps once per mutation.",
		func() float64 { return float64(cb.Generation()) })
	reg.GaugeFunc("corpus_pinned_snapshots", "Superseded snapshot generations still pinned by in-flight scans.",
		func() float64 { return float64(cb.PinnedSnapshots()) })

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
	s.traces.Register(reg)
	obs.RegisterBuildInfo(reg, func() float64 { return time.Since(s.started).Seconds() })
}

// ObserveStage implements scan.StageObserver onto the stage histogram.
func (m *metrics) ObserveStage(stage string, d time.Duration) {
	m.stageDur.With(stage).Observe(d.Seconds())
}
