package scan

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"knighter/internal/checker"
	"knighter/internal/engine"
	"knighter/internal/minic"
	"knighter/internal/obs"
	"knighter/internal/store"
)

// Incremental is the function-level scan scheduler. Where Codebase.Run
// fans out whole files and always re-analyzes everything, Incremental
// consults a content-addressed result store per (function, checker
// batch, engine bounds) triple, analyzes only the misses, and merges
// everything back deterministically in file/function order — so a warm
// re-scan of an unchanged corpus with an unchanged checker does no
// symbolic execution at all, and its reports are identical to a cold
// scan's.
type Incremental struct {
	cb *Codebase
	st store.Store
	// stages, when non-nil, receives per-scan stage durations (set once
	// at boot, before serving).
	stages StageObserver
}

// StageObserver receives the aggregate duration of each scan stage —
// kserve adapts it onto a latency histogram labeled by stage. Durations
// for the concurrent stages (cache_probe, engine_eval) are summed
// across workers, so they measure work done, not wall time.
type StageObserver interface {
	ObserveStage(stage string, d time.Duration)
}

// Scan stage names, as reported to StageObserver and trace timelines.
const (
	// StageSnapshotPin is scan admission: pinning the live MVCC snapshot
	// the whole scan will read. Its duration is the pin itself (a lock-
	// free pointer load plus registry bookkeeping); its count carries the
	// pinned generation, so a trace shows at a glance which corpus state
	// the scan saw.
	StageSnapshotPin = "snapshot_pin"
	// StageParse is the serial prologue: listing the pass's function
	// units and fingerprinting its riders. Function hashes and key
	// digests are memoized per file version and filled by the workers,
	// so a warm daemon hashes no function or key here.
	StageParse = "parse"
	// StageCacheProbe is the summed store probe time across workers.
	StageCacheProbe = "cache_probe"
	// StageEngineEval is the summed symbolic-execution time across
	// workers, of the misses explored: a miss answered from its
	// function's baseline takes none, nor does a fully warm scan. Its
	// count is every key computed, explored or not.
	StageEngineEval = "engine_eval"
	// StageSerialize is the deterministic merge of per-function results
	// into the final report order.
	StageSerialize = "serialize"
)

// SetStageObserver wires o into every subsequent scan. Call once at
// boot, before the scheduler serves traffic.
func (inc *Incremental) SetStageObserver(o StageObserver) { inc.stages = o }

// NewIncremental wraps a codebase with a result store. A nil store gets
// a default in-memory LRU tier.
func NewIncremental(cb *Codebase, st store.Store) *Incremental {
	if st == nil {
		st = store.NewMemory(0)
	}
	return &Incremental{cb: cb, st: st}
}

// Codebase returns the underlying parsed corpus.
func (inc *Incremental) Codebase() *Codebase { return inc.cb }

// Store returns the backing result store.
func (inc *Incremental) Store() store.Store { return inc.st }

// Stats snapshots the backing store's counters.
func (inc *Incremental) Stats() store.Stats { return inc.st.Stats() }

// Run scans every file through the cache.
func (inc *Incremental) Run(checkers []checker.Checker, opts Options) *Result {
	files := make([]int, inc.cb.NumFiles())
	for i := range files {
		files[i] = i
	}
	return inc.RunFiles(files, checkers, opts)
}

// RunOne scans every file with a single checker.
func (inc *Incremental) RunOne(ck checker.Checker, opts Options) *Result {
	return inc.Run([]checker.Checker{ck}, opts)
}

// unit identifies one schedulable analysis: function fn of file file.
type unit struct {
	file int
	fn   int
}

// rangeSize is how many consecutive units a worker claims at a time, and
// so how many keys per rider one store probe carries. It amortizes the
// claim, the memory tier's lock and a kcached round trip over a range;
// a pass has at most one worker per range, and its last range can leave
// a worker up to rangeSize-1 analyses behind the others on a cold pass.
const rangeSize = 64

// RunFiles scans the given file indices through the cache. The merge
// order — and therefore the report sequence — depends only on the order
// of files and the function order within each file, never on worker
// interleaving or cache state.
//
// The scan pins the live snapshot at entry and runs lock-free against
// it: a concurrent changeset commits the next generation without
// waiting for this scan or being waited on by it, and the result is
// byte-identical to a cold scan of the pinned generation.
func (inc *Incremental) RunFiles(files []int, checkers []checker.Checker, opts Options) *Result {
	pinStart := time.Now()
	snap := inc.cb.Pin()
	defer snap.Release()
	return inc.runRiders(snap.Snapshot, pinStart, files, [][]checker.Checker{checkers}, opts)[0]
}

// riderPlan is what the scheduler knows about one rider of a pass
// before any function is looked at.
type riderPlan struct {
	checkers  []checker.Checker
	fp        string // checker-batch fingerprint, "" when uncacheable
	cacheable bool
	// same is the index of an earlier rider with the same fingerprint
	// (its own index when there is none): equal riders compute once and
	// share every per-function result.
	same int
	// slot is the rider's place in a range's one store probe — its keys
	// are the probe's slot-th run of range-length keys — or -1 for a
	// rider that is not probed (uncacheable, or a duplicate).
	slot int
	// perFunc[u] is the rider's result for unit u.
	perFunc             []*engine.Result
	hits, misses, quiet atomic.Int64
}

// quietOn reports whether every checker of the rider is a
// checker.Quieter quiet on a function with footprint fp.
func (p *riderPlan) quietOn(fp *minic.Footprint) bool {
	for _, ck := range p.checkers {
		if q, ok := ck.(checker.Quieter); !ok || !q.QuietOn(fp) {
			return false
		}
	}
	return true
}

// runRiders is the scheduler body, reading only the immutable snap: one
// pass over the function units for any number of riders (a rider is the
// checker list one Result is keyed by — a scan is a pass with one rider,
// a batch a pass with one per checker). A worker claims the next range
// of units, probes every rider's keys for the whole range in one store
// call, then for each unit runs the engine ONCE with the riders that
// missed and are loud on the function — a rider whose checkers are all
// quiet on it copies the function's no-checker baseline instead — and
// stores each rider's result under its own key — the range's results in
// one store call, by the digests its probe used; the per-rider merges
// then run as if each rider had scanned alone.
func (inc *Incremental) runRiders(snap *Snapshot, pinStart time.Time, files []int, riders [][]checker.Checker, opts Options) []*Result {
	start := time.Now()

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eo := opts.engineOptions(nil)
	engFP := opts.Engine.Fingerprint()

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// Stage timing is strictly opt-in: with no trace on the context and
	// no observer installed, the hot path pays zero extra clock reads.
	tr := obs.TraceFrom(ctx)
	timed := tr != nil || inc.stages != nil
	stage := func(name string, begin time.Time, d time.Duration, n int) {
		tr.Observe(name, begin, d, n)
		if inc.stages != nil {
			inc.stages.ObserveStage(name, d)
		}
	}
	if timed {
		// The pin span's count is the pinned generation — the one fact a
		// trace reader wants from admission.
		stage(StageSnapshotPin, pinStart, start.Sub(pinStart), int(snap.gen))
	}

	keyStart := time.Now()
	n := 0
	for _, i := range files {
		n += len(snap.files[i].Funcs)
	}
	units := make([]unit, 0, n)
	for _, i := range files {
		for j := range snap.files[i].Funcs {
			units = append(units, unit{file: i, fn: j})
		}
	}
	plans := make([]riderPlan, len(riders))
	byFP := map[string]int{}
	probed := 0 // riders with a probe slot
	for i := range plans {
		p := &plans[i]
		p.checkers, p.same, p.slot = riders[i], i, -1
		if p.fp, p.cacheable = checkersFingerprint(riders[i]); p.cacheable {
			if first, dup := byFP[p.fp]; dup {
				p.same = first
				continue
			}
			byFP[p.fp] = i
			p.slot = probed
			probed++
		}
		p.perFunc = make([]*engine.Result, len(units))
	}
	cacheable := probed > 0 // any rider is
	if cacheable && timed {
		stage(StageParse, keyStart, time.Since(keyStart), len(units))
	}

	// The cache probe runs INSIDE the worker pool, not as a serial
	// prologue: with a remote tier every range probe is a network round
	// trip, and a fleet-warm scan is nothing but probes — serializing
	// them would make the scan's headline path single-threaded I/O. So
	// do the keys:
	// function hashes and key digests are memoized per file version, and
	// the worker whose range first touches a file since it changed (or
	// since a rider's fingerprints left its memo) hashes them there, in
	// parallel. A worker claims a range of units, probes every rider's
	// keys for the whole range in one store call, computes the misses
	// unit by unit, and stores them in one more call at the end of the
	// range. Two requests missing the same key at once both compute it
	// and both store the same bytes under it: content addressing makes
	// the duplicate put harmless.
	var busyNS, evalNS atomic.Int64
	workStart := time.Now()
	if len(units) > 0 {
		// More workers than ranges would only idle.
		workers = min(workers, (len(units)+rangeSize-1)/rangeSize)
		var wg sync.WaitGroup
		var cursor atomic.Int64 // the first unit no worker has claimed
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Stage timing costs two clock reads per WORKER, not per
				// unit: each worker's busy window is measured whole, and
				// the probe stage is busy time minus the separately-timed
				// engine evals. A fully warm scan therefore pays no
				// per-hit timing at all on its hot path.
				var t0 time.Time
				if timed {
					t0 = time.Now()
					defer func() { busyNS.Add(int64(time.Since(t0))) }()
				}
				// The range's one probe: keys and ids hold, at
				// [s*(hi-lo), (s+1)*(hi-lo)), the keys and key digests of
				// the rider in slot s — what its probe reads, and what its
				// misses are stored by — and got takes the answers before
				// they are copied to the riders. answers and got share one
				// allocation.
				keys := make([]store.Key, 0, probed*rangeSize)
				ids := make([]store.Digest, probed*rangeSize)
				scratch := make([]*engine.Result, len(plans)+probed*rangeSize)
				got := scratch[len(plans):]
				// The range's misses to store, written in one call when
				// the range is done.
				var putKeys []store.Key
				var putIDs []store.Digest
				var putRs []*engine.Result
				// The riders a unit still has to be analyzed for; the
				// checker lists of those explored, and where each sits in
				// missed; the results, parallel to missed.
				missed := make([]int, 0, len(plans))
				lists := make([][]checker.Checker, 0, len(plans)+1)
				explored := make([]int, 0, len(plans))
				answers := scratch[:0:len(plans)]
				var fp minic.Footprint
				for {
					hi := int(cursor.Add(rangeSize))
					lo := hi - rangeSize
					if lo >= len(units) {
						return
					}
					hi = min(hi, len(units))
					w := hi - lo
					keys = keys[:0]
					for i := range plans {
						p := &plans[i]
						if p.slot < 0 || opts.canceled() {
							continue
						}
						var fileIDs []store.Digest
						for u, file := lo, -1; u < hi; u++ {
							un := units[u]
							if un.file != file {
								file = un.file
								fileIDs = snap.keyDigests(file, p.fp, engFP)
							}
							keys = append(keys, p.key(snap.FuncHash(un.file, un.fn), engFP))
							ids[p.slot*w+u-lo] = fileIDs[un.fn]
						}
					}
					if len(keys) > 0 {
						store.GetMany(ctx, inc.st, keys, ids[:len(keys)], got[:len(keys)])
					}
					for i := range plans {
						p := &plans[i]
						if p.slot < 0 || (p.slot+1)*w > len(keys) {
							continue // not probed: the pass was canceled first
						}
						hits := 0
						for u, r := range got[p.slot*w : (p.slot+1)*w] {
							p.perFunc[lo+u] = r
							if r != nil {
								hits++
							}
						}
						p.hits.Add(int64(hits))
						p.misses.Add(int64(w - hits))
					}
					for u := lo; u < hi; u++ {
						missed = missed[:0]
						for i := range plans {
							p := &plans[i]
							switch {
							case p.same != i, p.perFunc[u] != nil: // a duplicate rider, or a hit
							case opts.canceled():
								// The scan was aborted: mark the unanswered
								// units canceled without analyzing or caching
								// them, and probe no further range — a
								// disconnected client stops paying even for
								// cache lookups.
								p.perFunc[u] = &engine.Result{Truncated: true, Canceled: true}
							default:
								missed = append(missed, i)
							}
						}
						if len(missed) == 0 {
							continue // every rider hit: the unit never enters the engine
						}
						un := units[u]
						// Compute the missed riders' results. A rider whose
						// checkers are all quiet on the function gets a copy
						// of its baseline, memoized or computed by an empty
						// rider riding along; the others are explored.
						f, memo := snap.files[un.file], snap.memo[un.file]
						fn := f.Funcs[un.fn]
						rs := answers[:len(missed)]
						clear(rs)
						lists, explored = lists[:0], explored[:0]
						fp.Reset(fn)
						quiet := false
						for k, i := range missed {
							if plans[i].quietOn(&fp) {
								quiet = true
								continue
							}
							lists, explored = append(lists, plans[i].checkers), append(explored, k)
						}
						var base engine.Result
						known := false
						if quiet {
							if base, known = memo.baseline(un.fn, engFP); !known {
								lists = append(lists, nil)
							}
						}
						if len(lists) > 0 {
							var e0 time.Time
							if timed {
								e0 = time.Now()
							}
							got := engine.AnalyzeFuncEach(f, fn, lists, eo)
							if timed {
								evalNS.Add(int64(time.Since(e0)))
							}
							for j, k := range explored {
								rs[k] = got[j]
							}
							if quiet && !known {
								base = *got[len(got)-1]
								memo.setBaseline(f, un.fn, engFP, &base)
							}
						}
						for k, r := range rs {
							p := &plans[missed[k]]
							if r == nil {
								b := base
								r = &b
								p.quiet.Add(1)
							}
							p.perFunc[u] = r
							if p.cacheable && storable(r) {
								putKeys = append(putKeys, p.key(snap.FuncHash(un.file, un.fn), engFP))
								putIDs = append(putIDs, ids[p.slot*w+u-lo])
								putRs = append(putRs, r)
							}
						}
					}
					if len(putKeys) > 0 {
						store.PutMany(ctx, inc.st, putKeys, putIDs, putRs)
						putKeys, putIDs, putRs = putKeys[:0], putIDs[:0], putRs[:0]
					}
				}
			}()
		}
		wg.Wait()
	}

	probes, evals := 0, 0
	for i := range plans {
		p := &plans[i]
		probes += int(p.hits.Load() + p.misses.Load())
		evals += int(p.misses.Load())
	}
	if timed && cacheable && len(units) > 0 {
		// The probe and eval stages interleave across workers, so both
		// anchor at the worker pool's start; their durations are summed
		// work, not wall time. Probe time is what remains of the workers'
		// busy windows once the engine evals are subtracted — exact when
		// the scan is fully warm (no evals at all), and a close bound
		// otherwise. Both fire once per pass, however many riders it
		// carried: their counts are keys probed and keys computed.
		probe := busyNS.Load() - evalNS.Load()
		if probe < 0 {
			probe = 0
		}
		stage(StageCacheProbe, workStart, time.Duration(probe), probes)
		stage(StageEngineEval, workStart, time.Duration(evalNS.Load()), evals)
	}

	mergeStart := time.Now()
	out := make([]*Result, len(plans))
	for i := range plans {
		p, from := &plans[i], &plans[plans[i].same]
		out[i] = snap.merge(files, from.perFunc, opts.MaxReports)
		if p.cacheable {
			out[i].CacheHits = int(from.hits.Load())
			out[i].CacheMisses = int(from.misses.Load())
			out[i].QuietResults = int(from.quiet.Load())
		}
	}
	if timed {
		stage(StageSerialize, mergeStart, time.Since(mergeStart), len(units)*len(plans))
	}
	elapsed := time.Since(start)
	for _, r := range out {
		r.Elapsed = elapsed
	}
	return out
}

func (p *riderPlan) key(funcHash, engFP string) store.Key {
	return store.Key{FuncHash: funcHash, CheckerFP: p.fp, EngineFP: engFP}
}

// storable reports whether a per-function result may be cached. A
// timed-out or canceled one depends on wall-clock speed or the caller's
// lifetime, not just the key's inputs — caching it would poison later
// scans.
func storable(r *engine.Result) bool { return !r.TimedOut && !r.Canceled }

// merge folds one rider's per-function results (parallel to the units of
// files) into its scan Result. Deterministic: per-function results fold
// into a per-file result in function order (deduplicating within the
// file, exactly like engine.AnalyzeFile), then files concatenate in the
// given order — byte-identical to the uncached Codebase.Run path.
func (s *Snapshot) merge(files []int, perFunc []*engine.Result, maxReports int) *Result {
	out := &Result{FilesScanned: len(files), Generation: s.gen}
	for _, r := range perFunc {
		if r.TimedOut {
			out.FuncsTimedOut++
		}
		if r.Canceled {
			out.Canceled = true
		}
	}
	u := 0
	out.FileCuts = make([]FileCut, 0, len(files))
	for _, i := range files {
		fileRes := &engine.Result{}
		for range s.files[i].Funcs {
			fileRes.Merge(perFunc[u])
			out.FuncsScanned++
			u++
		}
		repBefore, errBefore := len(out.Reports), len(out.RuntimeErrs)
		out.RuntimeErrs = append(out.RuntimeErrs, fileRes.RuntimeErrs...)
		for _, rep := range fileRes.Reports {
			if maxReports > 0 && len(out.Reports) >= maxReports {
				out.Truncated = true
				break
			}
			out.Reports = append(out.Reports, rep)
		}
		out.FileCuts = append(out.FileCuts, FileCut{
			Reports:     len(out.Reports) - repBefore,
			RuntimeErrs: len(out.RuntimeErrs) - errBefore,
		})
	}
	return out
}

// checkersFingerprint combines the fingerprints of an ordered checker
// batch. It returns ok=false — caching disabled — if any checker does
// not implement checker.Fingerprinter, since the cache cannot prove two
// such checkers behave identically.
func checkersFingerprint(cks []checker.Checker) (string, bool) {
	parts := make([]string, 0, len(cks)+1)
	parts = append(parts, "checkers:v1")
	for _, ck := range cks {
		fp, ok := ck.(checker.Fingerprinter)
		if !ok {
			return "", false
		}
		parts = append(parts, fp.Fingerprint())
	}
	return store.Hash(parts...), true
}
