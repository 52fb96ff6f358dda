package scan

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"knighter/internal/checker"
	"knighter/internal/engine"
	"knighter/internal/minic"
	"knighter/internal/store"
)

// Snapshot is one immutable generation of the parsed corpus: the file
// ASTs, the function count, and a lazily filled content-hash memo per
// file. A scan pins the live snapshot once at admission and reads it
// lock-free to completion — a changeset committing mid-scan builds the
// NEXT snapshot off to the side and swaps the live pointer, so the
// pinned one never changes underneath the reader.
//
// Everything reachable from a Snapshot is read-only except the memos:
// hashes filled exactly once, key digests and baselines filled on
// demand, all pure functions of the immutable ASTs (and of fingerprints).
type Snapshot struct {
	gen      int64
	files    []*minic.File
	numFuncs int
	// memo[i] holds the content hashes of files[i]. A successor shares
	// the memo of every file it keeps by pointer, so a warm daemon pays
	// each hash once per file version, not once per generation.
	memo []*fileMemo
	// index maps a file's path to its index. Changesets replace file
	// contents, never names, so every generation shares the one map
	// NewCodebase built.
	index map[string]int
}

// maxSumSets bounds how many (checker, engine) fingerprint pairs one file
// version keeps key digests for. Warm traffic re-scans a small pool of
// checkers — the benchmark's pool is 12, on warm_serve and on the commit
// workloads' reader alike — so 16 holds a whole pool. Each set costs 32
// bytes per function, ≤ 0.8 MB over the scale-1 corpus, in pointer-free
// arrays the collector never scans. Past 16 hot pairs the ring evicts
// the oldest, and a pass pays what it would without the memo — a digest
// per key — plus one insert.
const maxSumSets = 16

// fileMemo holds the content hashes of one file version, computed on
// first use. A function's analysis depends on its own source, its
// position (reports carry absolute line/col), and the file-level
// declarations it can see, so its hash covers all three.
//
// It also holds the store key digests of those functions for the last
// maxSumSets fingerprint pairs, in a ring under mu: a warm probe reads
// its digests instead of hashing every key, and reading allocates
// nothing.
//
// And, under mu, the baselines of those functions under the engine
// fingerprint last asked for: a daemon runs one engine configuration, and
// a pass under another replaces them. They cost 24 bytes per function,
// 37 KB over the scale-1 corpus, in pointer-free arrays.
type fileMemo struct {
	once  sync.Once
	funcs []string

	mu       sync.Mutex
	sums     [maxSumSets]sumSet
	next     int // the ring slot the next insert overwrites
	engineFP string
	bases    []baseline
}

// baseline is what analyzing a function with no checker returns: a result
// with no reports and no runtime errors, cut short by nothing but the
// engine's bounds. known is false until it is memoized.
type baseline struct {
	paths, steps     int
	truncated, known bool
}

// baseline returns function j's memoized baseline under engineFP.
func (m *fileMemo) baseline(j int, engineFP string) (engine.Result, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bases == nil || m.engineFP != engineFP || !m.bases[j].known {
		return engine.Result{}, false
	}
	b := m.bases[j]
	return engine.Result{Paths: b.paths, Steps: b.steps, Truncated: b.truncated}, true
}

// setBaseline memoizes r as function j's baseline under engineFP, when it
// is one: a result cut short by a timeout or a cancellation, or carrying
// an engine crash, is not.
func (m *fileMemo) setBaseline(f *minic.File, j int, engineFP string, r *engine.Result) {
	if !storable(r) || r.Reports != nil || r.RuntimeErrs != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bases == nil || m.engineFP != engineFP {
		m.engineFP, m.bases = engineFP, make([]baseline, len(f.Funcs))
	}
	m.bases[j] = baseline{r.Paths, r.Steps, r.Truncated, true}
}

// sumSet is the key digests of one file version's functions under one
// fingerprint pair: ids[j] == store.Key{funcs[j], checkerFP, engineFP}.Digest().
type sumSet struct {
	checkerFP, engineFP string
	ids                 []store.Digest
}

// digests returns the key digest of every function of f, the file
// version this memo belongs to, under (checkerFP, engineFP); the first
// request for a pair not in the ring hashes them and inserts the set.
// The returned slice is shared and read-only.
func (m *fileMemo) digests(f *minic.File, checkerFP, engineFP string) []store.Digest {
	if ids := m.findSum(checkerFP, engineFP, nil); ids != nil {
		return ids
	}
	funcs := m.hashes(f)
	ids := make([]store.Digest, len(funcs))
	for j, fh := range funcs {
		ids[j] = store.Key{FuncHash: fh, CheckerFP: checkerFP, EngineFP: engineFP}.Digest()
	}
	return m.findSum(checkerFP, engineFP, ids)
}

// findSum returns the ring's digests for the pair. When the ring has none
// and add is non-nil, it inserts add and returns it; a racing insert of
// the same pair wins instead, so the ring never holds a pair twice.
func (m *fileMemo) findSum(checkerFP, engineFP string, add []store.Digest) []store.Digest {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.sums {
		if s := &m.sums[i]; s.ids != nil && s.checkerFP == checkerFP && s.engineFP == engineFP {
			return s.ids
		}
	}
	if add != nil {
		m.sums[m.next] = sumSet{checkerFP, engineFP, add}
		m.next = (m.next + 1) % maxSumSets
	}
	return add
}

// hashes returns the content hash of every function of f, the file
// version this memo belongs to.
func (m *fileMemo) hashes(f *minic.File) []string {
	m.once.Do(func() {
		ctx := minic.FormatFile(&minic.File{Name: f.Name, Structs: f.Structs, Globals: f.Globals})
		ctxHash := store.Hash("filectx:v1", f.Name, ctx)
		m.funcs = make([]string, len(f.Funcs))
		for j, fn := range f.Funcs {
			// v2: the declaration position is part of the function's
			// identity — cached reports carry absolute line/col, so a
			// function whose text is unchanged but which moved within its
			// file must re-analyze.
			m.funcs[j] = store.Hash("func:v2", ctxHash,
				fmt.Sprintf("%d:%d", fn.Pos.Line, fn.Pos.Col), minic.FormatFunc(fn))
		}
	})
	return m.funcs
}

// newSnapshot builds generation gen over the given parsed files with a
// cold hash memo.
func newSnapshot(gen int64, files []*minic.File) *Snapshot {
	s := &Snapshot{gen: gen, files: files, memo: make([]*fileMemo, len(files)), index: make(map[string]int, len(files))}
	for i, f := range files {
		s.numFuncs += len(f.Funcs)
		s.memo[i] = &fileMemo{}
		if _, dup := s.index[f.Name]; !dup { // the first file of a name, as a linear search finds it
			s.index[f.Name] = i
		}
	}
	return s
}

// next builds the successor snapshot: untouched files share their ASTs
// and their hash memos with the parent; files in work swap in new ASTs
// and a cold memo. The parent is not modified — readers pinned to it
// keep seeing exactly what they pinned.
func (s *Snapshot) next(gen int64, work map[int]*minic.File) *Snapshot {
	n := &Snapshot{gen: gen, files: slices.Clone(s.files), numFuncs: s.numFuncs, memo: slices.Clone(s.memo), index: s.index}
	for i, nf := range work {
		n.numFuncs += len(nf.Funcs) - len(s.files[i].Funcs)
		n.files[i], n.memo[i] = nf, &fileMemo{}
	}
	return n
}

// Generation returns the snapshot's generation number.
func (s *Snapshot) Generation() int64 { return s.gen }

// Files returns the snapshot's parsed files. The slice and everything
// it points to are immutable — callers must not modify them.
func (s *Snapshot) Files() []*minic.File { return s.files }

// NumFuncs returns the total function count across all files.
func (s *Snapshot) NumFuncs() int { return s.numFuncs }

// FileIndex returns the index of the parsed file with the given path,
// or -1.
func (s *Snapshot) FileIndex(path string) int {
	if i, ok := s.index[path]; ok {
		return i
	}
	return -1
}

// FuncHash returns the content address of function j of file i: a hash
// of the canonical rendering of the function, its source position, and
// the file context (file name, structs, globals) its analysis can
// observe.
func (s *Snapshot) FuncHash(i, j int) string {
	return s.memo[i].hashes(s.files[i])[j]
}

// keyDigests returns the store key digest of every function of file i
// under the given fingerprints: ids[j] is the Digest of the key whose
// FuncHash is FuncHash(i, j). It is memoized with the file's hashes.
func (s *Snapshot) keyDigests(i int, checkerFP, engineFP string) []store.Digest {
	return s.memo[i].digests(s.files[i], checkerFP, engineFP)
}

// Run scans every file of the snapshot with the given checkers,
// uncached — the file-level fan-out of Codebase.Run, against an
// explicit generation. It takes no locks: the snapshot is immutable.
func (s *Snapshot) Run(checkers []checker.Checker, opts Options) *Result {
	return s.runFileLevel(checkers, opts)
}

// PinnedSnapshot is a Snapshot held alive in the codebase's pin
// registry, so operators can see how many old generations in-flight
// scans still retain. Release it when the scan completes; releasing
// twice is harmless.
type PinnedSnapshot struct {
	*Snapshot
	cb       *Codebase
	released atomic.Bool
}

// Release drops the pin. Idempotent.
func (p *PinnedSnapshot) Release() {
	if p.released.CompareAndSwap(false, true) {
		p.cb.unpin(p.gen)
	}
}

// Pin returns the live snapshot, registered in the pin registry until
// released. This is scan admission: everything the scan reads after
// this point comes from the pinned generation, unaffected by
// concurrent changesets.
func (cb *Codebase) Pin() *PinnedSnapshot {
	cb.pinMu.Lock()
	// Load inside pinMu so a concurrent commit cannot slip between the
	// load and the registration: the registry entry always covers the
	// snapshot actually returned.
	s := cb.snap.Load()
	cb.pins[s.gen]++
	cb.pinMu.Unlock()
	return &PinnedSnapshot{Snapshot: s, cb: cb}
}

func (cb *Codebase) unpin(gen int64) {
	cb.pinMu.Lock()
	if n := cb.pins[gen]; n <= 1 {
		delete(cb.pins, gen)
	} else {
		cb.pins[gen] = n - 1
	}
	cb.pinMu.Unlock()
}

// Snapshot returns the live snapshot without pinning it — a peek for
// callers that only need a consistent read and don't care about the
// pin registry's bookkeeping. The returned snapshot is immutable and
// safe to read indefinitely either way.
func (cb *Codebase) Snapshot() *Snapshot {
	return cb.snap.Load()
}

// PinnedSnapshots counts distinct generations that in-flight scans
// still hold pinned and that are older than the live generation — the
// retained-old-snapshot figure /stats and the
// corpus_pinned_snapshots gauge expose.
func (cb *Codebase) PinnedSnapshots() int {
	live := cb.generation.Load()
	cb.pinMu.Lock()
	defer cb.pinMu.Unlock()
	n := 0
	for gen := range cb.pins {
		if gen < live {
			n++
		}
	}
	return n
}

// WaitForGeneration blocks until the committed generation is >= min or
// ctx is done, and reports whether the bound was reached. It is the
// read-your-writes primitive behind the API's min_generation: a client
// passes the generation a changeset reply carried (via /scan's
// min_generation, on this replica or a peer still converging to it) to
// be served at-or-after its own write.
func (cb *Codebase) WaitForGeneration(ctx context.Context, min int64) bool {
	for {
		if cb.generation.Load() >= min {
			return true
		}
		cb.watchMu.Lock()
		ch := cb.watch
		cb.watchMu.Unlock()
		// Recheck after picking up the channel: a commit between the
		// first check and the channel grab would otherwise be missed.
		if cb.generation.Load() >= min {
			return true
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return cb.generation.Load() >= min
		}
	}
}

// notifyGeneration wakes every WaitForGeneration waiter after a commit.
func (cb *Codebase) notifyGeneration() {
	cb.watchMu.Lock()
	close(cb.watch)
	cb.watch = make(chan struct{})
	cb.watchMu.Unlock()
}
