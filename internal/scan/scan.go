// Package scan orchestrates whole-corpus analysis runs: the
// reproduction's analog of scanning the Linux tree with -j32 (§5). It
// offers two schedulers: Codebase.Run, a file-level fan-out that always
// analyzes everything, and Incremental, a function-level scheduler that
// consults a content-addressed result cache and only analyzes misses.
//
// The codebase is mutable and multi-version: ApplyChangeset applies a
// changeset — one whole-file replacement or function patch, or a
// commit's worth of them — atomically; only the touched files re-parse
// and re-hash, and every other file's cache entries stay warm.
// Mutations are MVCC copy-on-write: each commit builds the next
// immutable Snapshot off to the side and publishes it with a single
// pointer swap, so a scan pinned to the previous generation never
// blocks on a writer and never observes a half-applied changeset.
package scan

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"knighter/internal/checker"
	"knighter/internal/engine"
	"knighter/internal/kernel"
	"knighter/internal/minic"
)

// Codebase is a parsed corpus, reusable across many checker runs and
// mutable between them (ApplyChangeset). The live parse state lives in
// an immutable Snapshot behind an atomic pointer: readers pin it and run
// lock-free; writers serialize on a short mutation lock, build the
// successor snapshot, and commit by swapping the pointer.
type Codebase struct {
	Corpus *kernel.Corpus

	// snap is the live (committed) snapshot. generation and numFuncs
	// mirror it atomically so liveness and stats probes never touch a
	// lock, even mid-commit.
	snap       atomic.Pointer[Snapshot]
	generation atomic.Int64
	numFuncs   atomic.Int64

	// wmu serializes writers: each stages against the live snapshot and
	// publishes its successor at the next generation.
	wmu sync.Mutex

	// Pin registry: generation -> active pin count, for the
	// pinned_snapshots stat. Snapshots stay valid after unpinning (GC
	// owns their lifetime); the registry is observability, not safety.
	pinMu sync.Mutex
	pins  map[int64]int

	// watch is closed and replaced on every commit, waking
	// WaitForGeneration callers.
	watchMu sync.Mutex
	watch   chan struct{}
}

// NewCodebase parses every corpus file once into generation 0.
func NewCodebase(c *kernel.Corpus) (*Codebase, error) {
	var files []*minic.File
	for _, f := range c.Files {
		pf, err := minic.ParseFile(f.Path, f.Src)
		if err != nil {
			return nil, fmt.Errorf("scan: parse %s: %w", f.Path, err)
		}
		files = append(files, pf)
	}
	cb := &Codebase{Corpus: c, pins: map[int64]int{}, watch: make(chan struct{})}
	s := newSnapshot(0, files)
	cb.snap.Store(s)
	cb.numFuncs.Store(int64(s.numFuncs))
	return cb, nil
}

// Files returns the live snapshot's parsed files. The slice and its
// contents are immutable; a concurrent changeset publishes a NEW slice
// rather than mutating this one, so the returned value is a consistent
// point-in-time view. Callers that index repeatedly and need one
// generation throughout should Pin instead.
func (cb *Codebase) Files() []*minic.File {
	return cb.snap.Load().files
}

// NumFiles returns the corpus file count (fixed for the codebase's
// lifetime: changesets replace file contents, never add or remove
// files).
func (cb *Codebase) NumFiles() int {
	return len(cb.snap.Load().files)
}

// FuncHash returns the content address of function j of file i in the
// live snapshot (see Snapshot.FuncHash).
func (cb *Codebase) FuncHash(i, j int) string {
	return cb.snap.Load().FuncHash(i, j)
}

// FileIndex returns the index of the parsed file with the given path,
// or -1.
func (cb *Codebase) FileIndex(path string) int {
	return cb.snap.Load().FileIndex(path)
}

// Generation returns the committed generation: the number of changesets
// applied to the codebase since it was parsed (0 = as parsed). It never
// blocks, even mid-commit.
func (cb *Codebase) Generation() int64 {
	return cb.generation.Load()
}

// NumFuncs returns the current total function count across all files.
// Like Generation, it never blocks.
func (cb *Codebase) NumFuncs() int {
	return int(cb.numFuncs.Load())
}

// Options configures a scan.
type Options struct {
	// Workers is the parallelism degree (default: GOMAXPROCS). It is a
	// ceiling: a scan never starts more workers than it has work items
	// (files for Codebase.Run, unit ranges for Incremental), so a caller
	// cannot make it spawn goroutines that would only idle.
	Workers int
	// MaxReports caps the collected reports (0 = unlimited). The paper
	// caps refinement-phase scans at 100 warnings.
	MaxReports int
	// FuncTimeout is a per-function wall-clock budget (0 = none), so one
	// pathological function cannot stall a whole scan or a kserve batch
	// request. Functions over budget yield truncated, uncacheable
	// results counted in Result.FuncsTimedOut.
	FuncTimeout time.Duration
	// Context, when non-nil, aborts the scan early on cancellation:
	// remaining functions are skipped, in-flight ones unwind at the
	// engine's amortized check points, and the result comes back flagged
	// Canceled. Canceled per-function results are never cached, so an
	// aborted scan leaves no wrong entries behind — kserve uses this to
	// stop paying for scans whose client already disconnected.
	Context context.Context
	// Engine passes through per-function analysis options.
	Engine engine.Options
}

// engineOptions resolves the effective engine options for a scan.
func (o Options) engineOptions(checkers []checker.Checker) engine.Options {
	eo := o.Engine
	eo.Checkers = checkers
	if o.FuncTimeout > 0 {
		eo.Timeout = o.FuncTimeout
	}
	if o.Context != nil {
		eo.Ctx = o.Context
	}
	return eo
}

// canceled reports whether the scan's context (if any) is done.
func (o Options) canceled() bool {
	return o.Context != nil && o.Context.Err() != nil
}

// Result of a corpus scan.
type Result struct {
	Reports      []*checker.Report
	RuntimeErrs  []engine.RuntimeErr
	FilesScanned int
	FuncsScanned int
	Truncated    bool
	// FuncsTimedOut counts functions whose analysis was cut short by the
	// per-function timeout budget (function-level scheduler only; the
	// file-level Codebase.Run lacks per-function granularity).
	FuncsTimedOut int
	// Canceled marks a scan aborted by Options.Context: some functions
	// were skipped or cut short, and none of those were cached.
	Canceled bool
	// CacheHits and CacheMisses count per-function cache outcomes for
	// incremental scans (both zero for uncached Codebase.Run scans and
	// for uncacheable checker batches).
	CacheHits   int
	CacheMisses int
	// QuietResults counts misses answered from their function's baseline
	// without exploring it: every checker was quiet on the function
	// (checker.Quieter). Always <= CacheMisses.
	QuietResults int
	// FileCuts, parallel to the scanned file list, records how many
	// reports and runtime errors each file contributed to the flat
	// Reports and RuntimeErrs slices — the merge cursor a shard
	// coordinator uses to interleave partials from several shards back
	// into global file order (function-level scheduler only). Counts
	// reflect what was actually appended, so a MaxReports truncation
	// mid-file yields that file's partial count.
	FileCuts []FileCut
	// Generation is the snapshot generation the scan was pinned to at
	// admission: every report in this result was computed against
	// exactly that corpus state.
	Generation int64
	// Elapsed is the wall time of the scheduler pass that produced this
	// result. Every entry of a RunBatch carries the whole pass's: the
	// batch's checkers share one exploration, so no entry has a cost of
	// its own.
	Elapsed time.Duration
}

// FileCut records one scanned file's contribution to a Result's flat
// Reports and RuntimeErrs slices, in scan order.
type FileCut struct {
	Reports     int
	RuntimeErrs int
}

// Run scans the whole codebase with the given checkers. The scan pins
// the live snapshot at entry and runs lock-free: a changeset landing
// mid-scan commits the next generation without disturbing this one.
// Results are deterministic regardless of parallelism: per-file
// results are merged in file order.
func (cb *Codebase) Run(checkers []checker.Checker, opts Options) *Result {
	snap := cb.Pin()
	defer snap.Release()
	return snap.runFileLevel(checkers, opts)
}

// runFileLevel is the uncached file-level fan-out over one immutable
// snapshot.
func (s *Snapshot) runFileLevel(checkers []checker.Checker, opts Options) *Result {
	start := time.Now()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(s.files))
	eo := opts.engineOptions(checkers)
	perFile := make([]*engine.Result, len(s.files))
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				perFile[i] = engine.AnalyzeFile(s.files[i], eo)
			}
		}()
	}
	for i := range s.files {
		idx <- i
	}
	close(idx)
	wg.Wait()

	out := &Result{FilesScanned: len(s.files), Generation: s.gen}
	for i, r := range perFile {
		out.FuncsScanned += len(s.files[i].Funcs)
		out.RuntimeErrs = append(out.RuntimeErrs, r.RuntimeErrs...)
		for _, rep := range r.Reports {
			if opts.MaxReports > 0 && len(out.Reports) >= opts.MaxReports {
				// Stop collecting reports but keep aggregating counters
				// and runtime errors from the remaining files, so a
				// truncated result still reflects the whole scan.
				out.Truncated = true
				break
			}
			out.Reports = append(out.Reports, rep)
		}
	}
	out.Elapsed = time.Since(start)
	return out
}

// RunOne scans with a single checker (the per-checker refinement scans).
func (cb *Codebase) RunOne(ck checker.Checker, opts Options) *Result {
	return cb.Run([]checker.Checker{ck}, opts)
}
