package scan

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"knighter/internal/checker"
	"knighter/internal/engine"
	"knighter/internal/obs"
	"knighter/internal/store"
)

// Incremental is the function-level scan scheduler. Where Codebase.Run
// fans out whole files and always re-analyzes everything, Incremental
// consults a content-addressed result store per (function, checker,
// engine bounds) triple, analyzes only the misses, and merges
// everything back deterministically in file/function order — so a warm
// re-scan of an unchanged corpus with an unchanged checker does no
// symbolic execution at all, and its reports are identical to a cold
// scan's. Every checker it scans must be a checker.Fingerprinter, since
// the fingerprint is the store key; Codebase.Run is the uncached path
// for one that is not.
type Incremental struct {
	cb *Codebase
	st *store.Stack
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
	// units and fingerprinting its checkers, each hashed into the rider
	// half of its keys once. Function hashes and the function halves of
	// their keys are memoized per file version and filled by the
	// workers, so a warm daemon hashes no function or key here.
	StageParse = "parse"
	// StageCacheProbe is the summed store probe time across workers.
	StageCacheProbe = "cache_probe"
	// StageEngineEval is the summed symbolic-execution time across
	// workers, of the misses explored: a miss answered quietly takes
	// none, nor does a fully warm scan. Its count is every key computed,
	// explored or not.
	StageEngineEval = "engine_eval"
	// StageSerialize is the deterministic merge of per-function results
	// into the final report order.
	StageSerialize = "serialize"
)

// SetStageObserver wires o into every subsequent scan. Call once at
// boot, before the scheduler serves traffic.
func (inc *Incremental) SetStageObserver(o StageObserver) { inc.stages = o }

// NewIncremental wraps a codebase with a result store: st itself when
// it is a *store.Stack, and otherwise a Stack of st over no back. A nil
// store gets a default in-memory LRU tier.
func NewIncremental(cb *Codebase, st store.Store) *Incremental {
	if st == nil {
		st = store.NewMemory(0)
	}
	stack, ok := st.(*store.Stack)
	if !ok {
		stack = store.NewStack(nil, store.Tier{Name: "memory", Store: st}, nil)
	}
	return &Incremental{cb: cb, st: stack}
}

// Codebase returns the underlying parsed corpus.
func (inc *Incremental) Codebase() *Codebase { return inc.cb }

// Stats snapshots the backing store's counters.
func (inc *Incremental) Stats() store.Stats { return inc.st.Stats() }

// Run scans every file through the cache (RunFiles).
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

// RunFiles scans the given file indices through the cache. Each checker
// is a rider, as in RunBatch; each function's results are folded
// (engine.Fold) into Codebase.Run's answer, and the cache counts summed.
// The merge order — and therefore the report sequence — depends only on
// the order of files and the function order within each file, never on
// worker interleaving or cache state.
//
// The scan pins the live snapshot at entry and runs lock-free against
// it: a concurrent changeset commits the next generation without
// waiting for this scan or being waited on by it, and the result is
// byte-identical to a cold scan of the pinned generation.
func (inc *Incremental) RunFiles(files []int, checkers []checker.Checker, opts Options) *Result {
	pinStart := time.Now()
	snap := inc.cb.Pin()
	defer snap.Release()
	return inc.runRiders(snap.Snapshot, pinStart, files, checkers, opts, true)[0]
}

// riderPlan is what the scheduler knows about one rider of a pass — one
// checker — before any function is looked at.
type riderPlan struct {
	ck checker.Checker
	fp string // the checker's key fingerprint (checkerFingerprint)
	// rider is the rider half of the rider's keys under the pass's
	// engine bounds: a key's digest is store.PairDigest of its
	// function's half and this.
	rider store.Half
	// perFunc[u] is the rider's result for unit u.
	perFunc             []*engine.Result
	hits, misses, quiet atomic.Int64
}

// runRiders is the scheduler body, reading only the immutable snap: one
// pass over the function units for any number of riders (a rider is one
// checker, the one a stored Result is keyed by). A worker claims the next
// range of units and probes every rider's keys for the whole range in
// one store call. Each key the memory tier misses meets the one quiet
// gate once: a checker.Quieter quiet on the function reports nothing and
// panics nowhere there, and only a loud rider's miss goes on to kcached,
// the range's one round trip. For each unit, a quiet missed rider is
// answered emptyHit, unexplored, and one engine call takes the loud
// ones, lowering the function once and exploring it once per rider. Each
// rider's result is stored under its own key, the range's results in one
// store call by the digests its probe used: all of them in memory, and
// the explored ones in kcached too. The per-rider merges then run as if
// each rider had scanned alone, or, when fold is set, once over each
// unit's results folded by engine.Fold.
func (inc *Incremental) runRiders(snap *Snapshot, pinStart time.Time, files []int, checkers []checker.Checker, opts Options, fold bool) []*Result {
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
	plans := make([]riderPlan, len(checkers))
	for i := range plans {
		p := &plans[i]
		p.ck, p.fp = checkers[i], checkerFingerprint(checkers[i])
		p.rider = store.RiderPart(p.fp, engFP)
		p.perFunc = make([]*engine.Result, len(units))
	}
	if timed {
		stage(StageParse, keyStart, time.Since(keyStart), len(units))
	}

	// The cache probe runs INSIDE the worker pool, not as a serial
	// prologue: with a remote tier every range probe is a network round
	// trip, and a fleet-warm scan is nothing but probes — serializing
	// them would make the scan's headline path single-threaded I/O. So
	// do the keys: function hashes and the function halves of their keys
	// are memoized per file version, and the worker whose range first
	// touches a file since it changed hashes them there, in parallel;
	// every key digest is assembled from its two halves, hashing nothing.
	// The gate's footprints are memoized there too, each made by the
	// first worker whose miss needs it.
	// A worker claims a range of units, probes every rider's
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
				// [i*(hi-lo), (i+1)*(hi-lo)), the keys and key digests of
				// rider i — what its probe reads, and what its misses are
				// stored by — and got takes the payloads it answers, each
				// decoded into hit (decodeHit) before it reaches the rider.
				keys := make([]store.Key, 0, len(plans)*rangeSize)
				ids := make([]store.Digest, len(plans)*rangeSize)
				got := make([][]byte, len(plans)*rangeSize)
				var hit engine.Result
				// gate(k) is the quiet gate on key k, a miss, run once per
				// range: it reports whether the rider's checker is loud on
				// the unit, and loud[k] keeps the verdict for the explore
				// step.
				loud := make([]bool, len(plans)*rangeSize)
				gated := make([]bool, len(plans)*rangeSize)
				var lo, w int
				gate := func(k int) bool {
					if !gated[k] {
						un := units[lo+k%w]
						fp := snap.memo[un.file].footprint(snap.files[un.file], un.fn)
						q, ok := plans[k/w].ck.(checker.Quieter)
						loud[k], gated[k] = !ok || !q.QuietOn(fp), true
					}
					return loud[k]
				}
				// The range's misses to store, encoded once each and
				// written in one call when the range is done; explored
				// marks the ones kcached takes too.
				var putKeys []store.Key
				var putIDs []store.Digest
				var putPayloads [][]byte
				var putExplored []bool
				shared := func(j int) bool { return putExplored[j] }
				// The riders a unit still has to be analyzed for; the
				// checkers of those explored, and where each sits in
				// missed; the results, parallel to missed.
				missed := make([]int, 0, len(plans))
				loudCks := make([]checker.Checker, 0, len(plans))
				explored := make([]int, 0, len(plans))
				answers := make([]*engine.Result, 0, len(plans))
				for {
					hi := int(cursor.Add(rangeSize))
					lo = hi - rangeSize
					if lo >= len(units) {
						return
					}
					hi = min(hi, len(units))
					w = hi - lo
					keys = keys[:0]
					for i := range plans {
						if opts.canceled() {
							break
						}
						p := &plans[i]
						var hashes []string
						var parts []store.Half
						for u, file := lo, -1; u < hi; u++ {
							un := units[u]
							if un.file != file {
								file = un.file
								hashes, parts = snap.funcHashes(file)
							}
							keys = append(keys, p.key(hashes[un.fn], engFP))
							ids[i*w+u-lo] = store.PairDigest(parts[un.fn], p.rider)
						}
					}
					if len(keys) > 0 {
						clear(gated[:len(keys)])
						inc.st.Get(ctx, keys, ids[:len(keys)], got[:len(keys)], gate)
					}
					for i := range plans {
						if (i+1)*w > len(keys) {
							break // not probed: the pass was canceled first
						}
						p := &plans[i]
						hits := 0
						for u, payload := range got[i*w : (i+1)*w] {
							r := decodeHit(&hit, payload)
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
							case p.perFunc[u] != nil: // a hit
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
						// Compute the missed riders' results. A quiet
						// rider reports nothing on the function and gets
						// emptyHit, unexplored.
						f := snap.files[un.file]
						rs := answers[:len(missed)]
						loudCks, explored = loudCks[:0], explored[:0]
						for k, i := range missed {
							rs[k] = emptyHit
							if !gate(i*w + u - lo) {
								plans[i].quiet.Add(1)
								continue
							}
							loudCks, explored = append(loudCks, plans[i].ck), append(explored, k)
						}
						if len(loudCks) > 0 {
							var e0 time.Time
							if timed {
								e0 = time.Now()
							}
							got := engine.AnalyzeFuncEach(f, f.Funcs[un.fn], loudCks, eo)
							if timed {
								evalNS.Add(int64(time.Since(e0)))
							}
							for j, k := range explored {
								rs[k] = got[j]
							}
						}
						for k, r := range rs {
							i := missed[k]
							p := &plans[i]
							p.perFunc[u] = r
							if payload := store.Encode(r); payload != nil {
								putKeys = append(putKeys, keys[i*w+u-lo])
								putIDs = append(putIDs, ids[i*w+u-lo])
								putPayloads = append(putPayloads, payload)
								putExplored = append(putExplored, loud[i*w+u-lo])
							}
						}
					}
					if len(putKeys) > 0 {
						inc.st.Put(ctx, putKeys, putIDs, putPayloads, shared)
						putKeys, putIDs, putPayloads, putExplored = putKeys[:0], putIDs[:0], putPayloads[:0], putExplored[:0]
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
	if timed && len(units) > 0 {
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
	var out []*Result
	if fold && len(plans) != 1 {
		perFunc, rs := make([]*engine.Result, len(units)), make([]*engine.Result, len(plans))
		for u := range perFunc {
			for i := range plans {
				rs[i] = plans[i].perFunc[u]
			}
			perFunc[u] = engine.Fold(rs)
		}
		out = []*Result{snap.merge(files, perFunc, opts.MaxReports)}
	} else {
		out = make([]*Result, len(plans))
		for i := range plans {
			out[i] = snap.merge(files, plans[i].perFunc, opts.MaxReports)
		}
	}
	for i := range plans {
		r := out[min(i, len(out)-1)] // a folded result counts every rider's keys
		r.CacheHits += int(plans[i].hits.Load())
		r.CacheMisses += int(plans[i].misses.Load())
		r.QuietResults += int(plans[i].quiet.Load())
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

// emptyHit is the one result every answer with no reports and no
// runtime errors points at, a hit's or a quiet rider's; store.Encode
// writes it as its one shared payload. Read-only.
var emptyHit = &engine.Result{}

// decodeHit is a probed payload's result: nil for a miss, and for a
// payload that does not decode, as in every tier; emptyHit when the
// decode into scratch has no reports and no runtime errors; otherwise a
// copy of scratch, the hit's own. A warm hit with nothing to report
// allocates nothing.
func decodeHit(scratch *engine.Result, payload []byte) *engine.Result {
	if payload == nil || store.DecodeInto(scratch, payload) != nil {
		return nil
	}
	if len(scratch.Reports) == 0 && len(scratch.RuntimeErrs) == 0 {
		return emptyHit
	}
	r := *scratch
	return &r
}

// merge folds one rider's per-function results (parallel to the units of
// files) into its scan Result. Deterministic: per-function results fold
// into a per-file result in function order (deduplicating within the
// file, exactly like engine.AnalyzeFile), then files concatenate in the
// given order — byte-identical to the uncached Codebase.Run path.
func (s *Snapshot) merge(files []int, perFunc []*engine.Result, maxReports int) *Result {
	out := &Result{FilesScanned: len(files), Generation: s.gen}
	for _, r := range perFunc {
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

// checkerFingerprint is the CheckerFP every result of ck is stored
// under. Its bytes are pinned (TestOneCheckerKeyKeepsItsBytes): a change
// would orphan every entry kcached, a warm replica and refinement hold.
// The checker must be a checker.Fingerprinter — the store cannot prove
// two other checkers behave identically — and one that is not panics
// here; Codebase.Run scans such a checker uncached.
func checkerFingerprint(ck checker.Checker) string {
	return store.Hash("checkers:v1", ck.(checker.Fingerprinter).Fingerprint())
}
