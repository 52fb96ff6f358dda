package scan

import (
	"time"

	"knighter/internal/checker"
)

// RunBatch scans the given files with every checker of a batch in ONE
// pass — the StaAgent-style many-revision evaluation shape, where N
// checker revisions of one request scan the same corpus. Each checker is
// a rider of the pass (see runRiders): every function is probed under
// each checker's own key, one engine call (engine.AnalyzeFuncEach)
// lowers it once and explores it for each checker that missed and can
// act on it, and each checker's result is stored under its own key, the
// one RunOne of that checker uses.
// Results are returned in checker order; each entry's reports, cache
// counts, file cuts and generation are exactly what RunFiles would
// return for that checker alone against the store as the batch found
// it. A checker named twice is probed, explored and stored twice, with
// equal entries. Elapsed is the same for every entry: the pass's wall
// time, which no longer divides by checker.
//
// concurrency is ignored. It used to bound a pool of per-checker scans;
// there is one pass now, parallel over functions by opts.Workers. The
// parameter stays because callers outside this module compile against
// it.
//
// The batch pins ONE snapshot for all its checkers: every entry scans
// the same generation, even if changesets commit while the batch runs,
// so the per-checker results are mutually consistent.
//
// A nil files slice scans every file.
func (inc *Incremental) RunBatch(checkers []checker.Checker, files []int, opts Options, concurrency int) []*Result {
	snap := inc.cb.Pin()
	defer snap.Release()
	return inc.RunBatchAt(snap.Snapshot, checkers, files, opts)
}

// RunBatchAt is RunBatch over the given files (nil: every file) of a
// snapshot the caller pinned earlier — a reader asserting
// repeatability, or a shard coordinator holding its local partition to
// the generation it scattered. The caller owns the pin's lifetime.
func (inc *Incremental) RunBatchAt(snap *Snapshot, checkers []checker.Checker, files []int, opts Options) []*Result {
	if files == nil {
		files = make([]int, len(snap.files))
		for i := range files {
			files[i] = i
		}
	}
	return inc.runRiders(snap, time.Now(), files, checkers, opts, false)
}
