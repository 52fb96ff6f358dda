package engine

import "sync/atomic"

// Process-wide operational counters. The engine's cancellation guard and
// crash recovery deliberately fail quiet — a canceled or crashed pass
// yields a truncated or partial result and the scan moves on — which
// makes them events an operator cannot see across requests without
// counting. The counters are cumulative and monotonic, meant to be
// exposed as Prometheus counters (kserve wires them into /metrics via
// counter funcs).
var (
	cancels atomic.Int64
	crashes atomic.Int64
)

// Totals is a snapshot of the engine's cumulative operational counters.
type Totals struct {
	// Cancels counts per-function analyses aborted by Options.Ctx
	// cancellation, including functions skipped because the context was
	// already done at entry.
	Cancels int64
	// Crashes counts checker panics recovered into RuntimeErrs.
	Crashes int64
}

// CounterTotals snapshots the counters.
func CounterTotals() Totals {
	return Totals{
		Cancels: cancels.Load(),
		Crashes: crashes.Load(),
	}
}

// countOutcome folds one finished per-function result into the
// process-wide counters (AnalyzeFunc defers it around every analysis,
// whatever path produced the result).
func countOutcome(res *Result) {
	if res.Canceled {
		cancels.Add(1)
	}
	if n := len(res.RuntimeErrs); n > 0 {
		crashes.Add(int64(n))
	}
}
