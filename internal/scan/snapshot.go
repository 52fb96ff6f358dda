package scan

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

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
// hashes and key function halves filled exactly once, footprints filled
// on demand, all pure functions of the immutable ASTs.
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

// fileMemo holds the content hashes of one file version, computed on
// first use. A function's analysis depends on its own source, its
// position (reports carry absolute line/col), and the file-level
// declarations it can see, so its hash covers all three. Beside each
// hash it holds the function half of the function's store keys, so a
// probe assembles a key digest from it and the pass's rider half
// (store.PairDigest) without hashing.
//
// And the footprints of those functions, each made once per file
// version.
type fileMemo struct {
	once  sync.Once
	funcs []string
	parts []store.Half // parts[j] == store.FuncPart(funcs[j])

	fpOnce sync.Once
	fps    []atomic.Pointer[minic.Footprint]
}

// footprint returns the footprint of function j of f, the file version
// this memo belongs to. It is shared and read-only. Each function's is
// made on the first miss that asks for it, not the file's all at once: a
// commit's re-scan misses a few functions of a file it leaves otherwise
// warm.
func (m *fileMemo) footprint(f *minic.File, j int) *minic.Footprint {
	m.fpOnce.Do(func() { m.fps = make([]atomic.Pointer[minic.Footprint], len(f.Funcs)) })
	if fp := m.fps[j].Load(); fp != nil {
		return fp
	}
	fp := new(minic.Footprint)
	fp.Reset(f.Funcs[j])
	m.fps[j].Store(fp) // a racing worker's is equal
	return fp
}

// preimages holds the buffers fileMemo.hashes prints its hash preimages
// into.
var preimages = sync.Pool{New: func() any { return new([]byte) }}

// hashes returns the content hash of every function of f, the file
// version this memo belongs to, and the function half of its keys.
func (m *fileMemo) hashes(f *minic.File) ([]string, []store.Half) {
	m.once.Do(func() {
		// Each preimage is printed into one pooled buffer, framed as
		// store.Hash frames its parts, so a hash allocates only itself.
		bp := preimages.Get().(*[]byte)
		buf := append(append((*bp)[:0], "filectx:v1\x00"...), f.Name...)
		buf = append(minic.AppendFile(append(buf, 0), &minic.File{Name: f.Name, Structs: f.Structs, Globals: f.Globals}), 0)
		ctxHash := store.HashFramed(buf)
		m.funcs = make([]string, len(f.Funcs))
		m.parts = make([]store.Half, len(f.Funcs))
		for j, fn := range f.Funcs {
			// v2: the declaration position is part of the function's
			// identity — cached reports carry absolute line/col, so a
			// function whose text is unchanged but which moved within its
			// file must re-analyze.
			buf = append(append(append(buf[:0], "func:v2\x00"...), ctxHash...), 0)
			buf = append(strconv.AppendInt(buf, int64(fn.Pos.Line), 10), ':')
			buf = append(strconv.AppendInt(buf, int64(fn.Pos.Col), 10), 0)
			buf = append(minic.AppendFunc(buf, fn), 0)
			m.funcs[j] = store.HashFramed(buf)
			m.parts[j] = store.FuncPart(m.funcs[j])
		}
		*bp = buf
		preimages.Put(bp)
	})
	return m.funcs, m.parts
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
	hs, _ := s.funcHashes(i)
	return hs[j]
}

// funcHashes returns FuncHash(i, j) of every function j of file i, and
// the function half of its store keys, memoized per file version.
func (s *Snapshot) funcHashes(i int) ([]string, []store.Half) {
	return s.memo[i].hashes(s.files[i])
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
