package scan

import (
	"fmt"
	"sort"

	"knighter/internal/minic"
)

// Change is one element of a changeset: a whole-file replacement (Func
// empty) or a single-function patch (Func names the function Source
// replaces). A patch source must parse to exactly one function and
// nothing else: a struct or global in the patch would change the file
// context behind every sibling function's back.
type Change struct {
	Path   string
	Func   string
	Source string
}

// FileChange reports what a changeset did to one file.
type FileChange struct {
	// Path and File identify the mutated file.
	Path string
	File int
	// Funcs is the file's function count after the changeset.
	Funcs int
	// Changed counts functions whose content hash differs from before
	// (exactly the functions an incremental re-scan will miss on).
	Changed int
	// StaleHashes are the pre-changeset hashes that no longer address any
	// function of the file.
	StaleHashes []string
}

// Changeset describes one atomically applied multi-file changeset: the
// commit-sized unit of corpus mutation. However many files it touches,
// it costs one snapshot swap and exactly one generation bump.
type Changeset struct {
	// Ops is the number of changes applied.
	Ops int
	// Files holds per-file outcomes, in first-touch order.
	Files []*FileChange
	// Changed totals changed functions across all touched files.
	Changed int
	// StaleHashes is the sorted union of every file's orphaned hashes.
	StaleHashes []string
	// StoreInvalidated counts the store entries dropped for StaleHashes.
	// Populated by Incremental.ApplyChangeset (zero for bare Codebase
	// changesets, which have no store).
	StoreInvalidated int
	// Generation is the codebase generation after this changeset.
	Generation int64
}

// opContext names one change for error messages; multi-op changesets
// add the op index.
func opContext(oi, n int, c Change) string {
	verb := fmt.Sprintf("replace %s", c.Path)
	if c.Func != "" {
		verb = fmt.Sprintf("patch %s.%s", c.Path, c.Func)
	}
	if n == 1 {
		return "scan: " + verb
	}
	return fmt.Sprintf("scan: changeset op %d (%s)", oi, verb)
}

// parseChanges parses every op's source BEFORE the mutation lock is
// taken: the raw parses read nothing from the codebase, and they are
// the expensive part of a mutation — doing them outside keeps the
// writer-serialized window to the stage and swap themselves.
func parseChanges(changes []Change) ([]*minic.File, error) {
	parsed := make([]*minic.File, len(changes))
	for oi, c := range changes {
		where := opContext(oi, len(changes), c)
		pf, err := minic.ParseFile(c.Path, c.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", where, err)
		}
		if c.Func != "" && (len(pf.Funcs) != 1 || len(pf.Structs) != 0 || len(pf.Globals) != 0) {
			return nil, fmt.Errorf("%s: patch source must contain exactly one function and no declarations (got %d funcs, %d structs, %d globals)",
				where, len(pf.Funcs), len(pf.Structs), len(pf.Globals))
		}
		parsed[oi] = pf
	}
	return parsed, nil
}

// stageChanges builds each touched file's final AST and source against
// the parent snapshot, without mutating anything: a bad op — unknown
// file, unknown function, re-parse failure — rejects the whole
// changeset and no generation is consumed.
//
// Ops apply in order against the staged state, so a patch may target a
// function introduced by an earlier replace of the same file in the
// same changeset.
func stageChanges(parent *Snapshot, changes []Change, parsed []*minic.File) (work map[int]*minic.File, srcs map[int]string, touched []int, err error) {
	work = map[int]*minic.File{}
	srcs = map[int]string{}
	stage := func(i int, nf *minic.File, src string) {
		if _, seen := work[i]; !seen {
			touched = append(touched, i)
		}
		work[i] = nf
		srcs[i] = src
	}
	for oi, c := range changes {
		where := opContext(oi, len(changes), c)
		i := parent.FileIndex(c.Path)
		if i < 0 {
			return nil, nil, nil, fmt.Errorf("%s: no such file", where)
		}
		if c.Func == "" {
			stage(i, parsed[oi], c.Source)
			continue
		}
		pf := parsed[oi]
		old := parent.files[i]
		if staged, ok := work[i]; ok {
			old = staged
		}
		j := -1
		for idx, fn := range old.Funcs {
			if fn.Name == c.Func {
				j = idx
				break
			}
		}
		if j < 0 {
			return nil, nil, nil, fmt.Errorf("%s: no such function", where)
		}
		funcs := make([]*minic.FuncDecl, len(old.Funcs))
		copy(funcs, old.Funcs)
		funcs[j] = pf.Funcs[0]
		// The file is re-rendered canonically and re-parsed, so the
		// in-memory AST — including every position a report can carry —
		// is byte-equivalent to a cold parse of the stored source.
		src := minic.FormatFile(&minic.File{
			Name: old.Name, Structs: old.Structs, Globals: old.Globals, Funcs: funcs,
		})
		nf, perr := minic.ParseFile(c.Path, src)
		if perr != nil {
			// The canonical printer emitted something the parser rejects —
			// a printer bug, but surface it rather than corrupt the file.
			return nil, nil, nil, fmt.Errorf("%s: re-parse of patched file: %w", where, perr)
		}
		stage(i, nf, src)
	}
	return work, srcs, touched, nil
}

// commitLocked publishes generation parent.gen+1: it builds the
// successor snapshot off the parent, diffs the touched files' content
// hashes, rewrites the corpus ground-truth sources, and swaps the live
// pointer. Caller holds cb.wmu, and parent is the live snapshot.
func (cb *Codebase) commitLocked(parent *Snapshot, ops int, work map[int]*minic.File, srcs map[int]string, touched []int) *Changeset {
	gen := parent.gen + 1
	// Pre-changeset hashes come from the parent's memo, which still
	// reflects the old ASTs and is shared by every reader pinned to it.
	oldHashes := make(map[int]map[string]bool, len(touched))
	for _, i := range touched {
		hs := make(map[string]bool, len(parent.files[i].Funcs))
		for j := range parent.files[i].Funcs {
			hs[parent.FuncHash(i, j)] = true
		}
		oldHashes[i] = hs
	}
	next := parent.next(gen, work)
	cs := &Changeset{Ops: ops, Generation: gen}
	for _, i := range touched {
		fc := &FileChange{Path: next.files[i].Name, File: i, Funcs: len(next.files[i].Funcs)}
		newHashes := make(map[string]bool, fc.Funcs)
		for j := 0; j < fc.Funcs; j++ {
			h := next.FuncHash(i, j)
			newHashes[h] = true
			if !oldHashes[i][h] {
				fc.Changed++
			}
		}
		for h := range oldHashes[i] {
			if !newHashes[h] {
				fc.StaleHashes = append(fc.StaleHashes, h)
			}
		}
		sort.Strings(fc.StaleHashes)
		cs.Files = append(cs.Files, fc)
		cs.Changed += fc.Changed
		cs.StaleHashes = append(cs.StaleHashes, fc.StaleHashes...)
	}
	sort.Strings(cs.StaleHashes)
	// The corpus ground truth mirrors the committed generation: srcs
	// rewrite under wmu, so NewCodebase(cb.Corpus) at writer quiescence
	// reproduces the live snapshot exactly.
	for _, i := range touched {
		cb.Corpus.Files[i].Src = srcs[i]
	}
	// Publish: one pointer swap makes the generation live; the atomics
	// follow so lock-free probes agree with the snapshot they'd pin.
	cb.snap.Store(next)
	cb.numFuncs.Store(int64(next.numFuncs))
	cb.generation.Store(gen)
	cb.notifyGeneration()
	return cs
}

// ApplyChangeset applies every change atomically: all ops are validated
// and staged against working copies first, so a bad op — unknown file,
// unknown function, parse error — rejects the whole changeset, leaves
// the codebase untouched, and consumes no generation. On success every
// touched file swaps in at once, as a single new snapshot and a single
// generation bump, and only the touched files re-parse.
//
// Unlike the old write-lock design, ApplyChangeset never waits for
// in-flight scans and never blocks new ones: readers pinned to the
// previous generation keep running against it while this commit
// publishes the next. It does serialize with other writers, but only
// for the stage and swap: the sources parse before the lock is taken.
func (cb *Codebase) ApplyChangeset(changes []Change) (*Changeset, error) {
	if len(changes) == 0 {
		return nil, fmt.Errorf("scan: empty changeset")
	}
	parsed, err := parseChanges(changes)
	if err != nil {
		return nil, err
	}
	cb.wmu.Lock()
	defer cb.wmu.Unlock()
	parent := cb.snap.Load()
	work, srcs, touched, err := stageChanges(parent, changes, parsed)
	if err != nil {
		return nil, err
	}
	return cb.commitLocked(parent, len(changes), work, srcs, touched), nil
}

// ApplyChangeset applies a multi-file changeset to the codebase (see
// Codebase.ApplyChangeset) and invalidates every orphaned store entry in
// one pass over the store. Invalidation runs after the commit, against
// the committed generation's stale-hash set — never against mid-build
// state — and stale entries are content-addressed, so the window
// between swap and invalidation can serve no wrong results, only
// unreachable ones.
func (inc *Incremental) ApplyChangeset(changes []Change) (*Changeset, error) {
	cs, err := inc.cb.ApplyChangeset(changes)
	if err != nil {
		return nil, err
	}
	cs.StoreInvalidated = inc.invalidateHashes(cs.StaleHashes)
	return cs, nil
}

// invalidateHashes drops every store entry addressed by the given
// pre-mutation function hashes, in one store call.
func (inc *Incremental) invalidateHashes(hashes []string) int {
	if len(hashes) == 0 {
		return 0
	}
	return inc.st.InvalidateFuncs(hashes)
}
