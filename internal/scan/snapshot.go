package scan

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"knighter/internal/checker"
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
// Everything reachable from a Snapshot is read-only except the hash
// memos, each filled exactly once (content hashes are pure functions of
// the immutable ASTs).
type Snapshot struct {
	gen      int64
	files    []*minic.File
	numFuncs int
	// memo[i] holds the content hashes of files[i]. A successor shares
	// the memo of every file it keeps by pointer, so a warm daemon pays
	// each hash once per file version, not once per generation.
	memo []*fileMemo
}

// fileMemo holds the content hashes of one file version, computed on
// first use. A function's analysis depends on its own source, its
// position (reports carry absolute line/col), and the file-level
// declarations it can see, so its hash covers all three.
type fileMemo struct {
	once  sync.Once
	funcs []string
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
	s := &Snapshot{gen: gen, files: files, memo: make([]*fileMemo, len(files))}
	for i, f := range files {
		s.numFuncs += len(f.Funcs)
		s.memo[i] = &fileMemo{}
	}
	return s
}

// next builds the successor snapshot: untouched files share their ASTs
// and their hash memos with the parent; files in work swap in new ASTs
// and a cold memo. The parent is not modified — readers pinned to it
// keep seeing exactly what they pinned.
func (s *Snapshot) next(gen int64, work map[int]*minic.File) *Snapshot {
	n := &Snapshot{gen: gen, files: slices.Clone(s.files), numFuncs: s.numFuncs, memo: slices.Clone(s.memo)}
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
	for i, f := range s.files {
		if f.Name == path {
			return i
		}
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

// unitHashes is FuncHash for every unit of a scan.
func (s *Snapshot) unitHashes(units []unit) []string {
	hashes := make([]string, len(units))
	for u, un := range units {
		hashes[u] = s.FuncHash(un.file, un.fn)
	}
	return hashes
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
// holding a generation token from an async changeset passes it here
// (via /scan's min_generation) to be served at-or-after its own write.
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
