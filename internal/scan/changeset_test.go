package scan

import (
	"runtime"
	"strings"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/kernel"
	"knighter/internal/minic"
	"knighter/internal/store"
)

// pickFiles returns the indices of n distinct corpus files, each with at
// least minFuncs functions.
func pickFiles(t *testing.T, cb *Codebase, n, minFuncs int) []int {
	t.Helper()
	var out []int
	for i, f := range cb.Files() {
		if len(f.Funcs) >= minFuncs {
			out = append(out, i)
			if len(out) == n {
				return out
			}
		}
	}
	t.Fatalf("corpus has only %d files with >= %d functions, need %d", len(out), minFuncs, n)
	return nil
}

// TestChangesetConfinesMissesToTouchedFiles is the tentpole acceptance
// criterion: a K-file changeset misses only on functions in the K
// touched files, and the post-changeset scan is byte-identical to a cold
// scan of the mutated corpus.
func TestChangesetConfinesMissesToTouchedFiles(t *testing.T) {
	cb := buildCodebase(t)
	ck := compileChecker(t)
	st := store.NewMemory(0)
	inc := NewIncremental(cb, st)

	const k = 3
	files := pickFiles(t, cb, k, 2)
	for _, i := range files {
		canonicalize(t, inc, i)
	}
	genBefore := cb.Generation()
	inc.RunOne(ck, Options{Workers: 1}) // warm everything
	warm := inc.RunOne(ck, Options{Workers: 1})
	if warm.CacheMisses != 0 {
		t.Fatalf("warm-up left %d misses", warm.CacheMisses)
	}

	// One change per file, patching each file's LAST function so nothing
	// below it shifts: exactly one hash changes per touched file.
	var changes []Change
	for _, i := range files {
		j := len(cb.Files()[i].Funcs) - 1
		changes = append(changes, Change{
			Path:   cb.Files()[i].Name,
			Func:   cb.Files()[i].Funcs[j].Name,
			Source: tweakedFunc(t, cb, i, j),
		})
	}
	cs, err := inc.ApplyChangeset(changes)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Ops != k || len(cs.Files) != k {
		t.Fatalf("changeset touched %d ops / %d files, want %d", cs.Ops, len(cs.Files), k)
	}
	if cs.Changed != k || len(cs.StaleHashes) != k {
		t.Fatalf("changeset changed %d funcs / %d stale hashes, want %d each", cs.Changed, len(cs.StaleHashes), k)
	}
	if cs.StoreInvalidated != k {
		t.Fatalf("store invalidated %d entries, want %d (one checker, one engine config)", cs.StoreInvalidated, k)
	}
	if cs.Generation != genBefore+1 {
		t.Fatalf("generation = %d, want %d (one bump for the whole changeset)", cs.Generation, genBefore+1)
	}

	// Miss confinement: the full re-scan misses exactly k times — one per
	// touched file — and hits everything else.
	rescan := inc.RunOne(ck, Options{Workers: 1})
	if rescan.CacheMisses != k {
		t.Fatalf("post-changeset scan missed %d times, want %d", rescan.CacheMisses, k)
	}
	if rescan.CacheHits != warm.CacheHits-k {
		t.Fatalf("post-changeset hits = %d, want %d", rescan.CacheHits, warm.CacheHits-k)
	}

	// Untouched files re-scan without a single miss.
	var others []int
	touched := map[int]bool{}
	for _, i := range files {
		touched[i] = true
	}
	for fi := range cb.Files() {
		if !touched[fi] {
			others = append(others, fi)
		}
	}
	if res := inc.RunFiles(others, []checker.Checker{ck}, Options{Workers: 1}); res.CacheMisses != 0 {
		t.Fatalf("scan of untouched files missed %d times after a changeset elsewhere", res.CacheMisses)
	}

	// Byte-identical to a cold scan of the mutated corpus.
	cold, err := NewCodebase(cb.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	want := resultBytes(t, cold.RunOne(ck, Options{Workers: 1}))
	if got := resultBytes(t, inc.RunOne(ck, Options{Workers: 1})); got != want {
		t.Fatal("post-changeset incremental scan differs from cold scan of the mutated corpus")
	}
}

// TestChangesetIsAtomic verifies all-or-nothing semantics: a changeset
// whose last op is invalid must leave the codebase byte-identical to its
// pre-changeset state — no partial file swaps, no generation bump, no
// store invalidation.
func TestChangesetIsAtomic(t *testing.T) {
	cb := buildCodebase(t)
	ck := compileChecker(t)
	st := store.NewMemory(0)
	inc := NewIncremental(cb, st)

	files := pickFiles(t, cb, 2, 2)
	for _, i := range files {
		canonicalize(t, inc, i)
	}
	inc.RunOne(ck, Options{Workers: 1})
	genBefore := cb.Generation()
	srcBefore := cb.Corpus.Files[files[0]].Src

	bad := []struct {
		name    string
		changes []Change
	}{
		{"second op unknown file", []Change{
			{Path: cb.Files()[files[0]].Name, Source: minic.FormatFile(cb.Files()[files[0]])},
			{Path: "no/such/file.c", Source: "int x;"},
		}},
		{"second op parse error", []Change{
			{Path: cb.Files()[files[0]].Name, Source: minic.FormatFile(cb.Files()[files[0]])},
			{Path: cb.Files()[files[1]].Name, Source: "int broken("},
		}},
		{"second op unknown function", []Change{
			{Path: cb.Files()[files[0]].Name, Source: minic.FormatFile(cb.Files()[files[0]])},
			{Path: cb.Files()[files[1]].Name, Func: "no_such_function", Source: "int f(void)\n{\n\treturn 0;\n}"},
		}},
		{"patch smuggling a global", []Change{
			{Path: cb.Files()[files[0]].Name, Func: cb.Files()[files[0]].Funcs[0].Name,
				Source: "int smuggled;\n" + minic.FormatFunc(cb.Files()[files[0]].Funcs[0])},
		}},
		{"empty changeset", nil},
	}
	for _, tc := range bad {
		if _, err := inc.ApplyChangeset(tc.changes); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if g := cb.Generation(); g != genBefore {
		t.Fatalf("rejected changesets bumped generation %d -> %d", genBefore, g)
	}
	if cb.Corpus.Files[files[0]].Src != srcBefore {
		t.Fatal("rejected changeset mutated a file staged by an earlier valid op")
	}
	// The cache survived intact: a re-scan is all hits.
	if res := inc.RunOne(ck, Options{Workers: 1}); res.CacheMisses != 0 {
		t.Fatalf("rejected changesets cost %d cache misses", res.CacheMisses)
	}
}

// TestChangesetOpsComposeInOrder verifies that later ops see earlier
// ops' staged state: a replace that renames a function, followed by a
// patch of the new name, works in one changeset.
func TestChangesetOpsComposeInOrder(t *testing.T) {
	cb := buildCodebase(t)
	inc := NewIncremental(cb, store.NewMemory(0))
	i := pickFile(t, cb, 2)
	path := cb.Files()[i].Name

	// Replace: rename the last function.
	f := cb.Files()[i]
	j := len(f.Funcs) - 1
	oldName := f.Funcs[j].Name
	newName := oldName + "_renamed"
	renamed := strings.Replace(minic.FormatFile(f), oldName+"(", newName+"(", 1)

	// Patch: tweak the renamed function (only resolvable post-replace).
	patched := strings.Replace(tweakedFunc(t, cb, i, j), oldName+"(", newName+"(", 1)

	cs, err := inc.ApplyChangeset([]Change{
		{Path: path, Source: renamed},
		{Path: path, Func: newName, Source: patched},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Files) != 1 {
		t.Fatalf("two ops on one file produced %d file changes, want 1", len(cs.Files))
	}
	if got := cb.Files()[i].Funcs[j].Name; got != newName {
		t.Fatalf("final function name = %q, want %q", got, newName)
	}
	// Same-name patch against the PRE-replace state must fail, proving
	// ops really compose against staged state rather than the codebase.
	if _, err := cb.ApplyChangeset([]Change{
		{Path: path, Func: oldName, Source: minic.FormatFunc(f.Funcs[0])},
	}); err == nil {
		t.Fatal("patch of a renamed-away function succeeded")
	}
}

// TestChangesetEquivalentToSequentialMutations: one K-file changeset
// must leave the corpus and scan results in exactly the state K
// sequential one-change changesets would — with one generation bump instead of K.
func TestChangesetEquivalentToSequentialMutations(t *testing.T) {
	ck := compileChecker(t)

	build := func() (*Codebase, *Incremental) {
		cb := buildCodebase(t)
		return cb, NewIncremental(cb, store.NewMemory(0))
	}
	cbA, incA := build()
	cbB, incB := build()

	files := pickFiles(t, cbA, 3, 1)
	var changes []Change
	for _, i := range files {
		f := cbA.Files()[i]
		src := minic.FormatFile(f)
		changes = append(changes, Change{Path: f.Name, Source: src})
	}

	if _, err := incA.ApplyChangeset(changes); err != nil {
		t.Fatal(err)
	}
	for _, c := range changes {
		if _, err := incB.ApplyChangeset([]Change{c}); err != nil {
			t.Fatal(err)
		}
	}
	if g := cbA.Generation(); g != 1 {
		t.Fatalf("changeset bumped generation %d times, want 1", g)
	}
	if g := cbB.Generation(); g != int64(len(files)) {
		t.Fatalf("sequential replaces bumped generation %d times, want %d", g, len(files))
	}
	a := resultBytes(t, incA.RunOne(ck, Options{Workers: 1}))
	b := resultBytes(t, incB.RunOne(ck, Options{Workers: 1}))
	if a != b {
		t.Fatal("changeset and sequential mutations diverged")
	}
}

// heapBytesPerRun is the mean of the bytes f allocates on the heap per
// call over runs calls, measured on one P so that nothing else
// allocates between the two readings.
func heapBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestCommitAllocations budgets what a commit allocates beyond what the
// new snapshot keeps. The parser pulls its tokens instead of lexing a
// file's whole stream first, function hashes are printed into one
// reused buffer, and FormatExpr, which the checkers and the engine call
// for every event, prints into a pooled buffer: a per-token or per-call
// allocation that comes back breaks a budget here.
func TestCommitAllocations(t *testing.T) {
	corpus := kernel.Generate(kernel.Config{Seed: 1, Scale: 0.25})

	// Parsing keeps the AST, about 9.4 B per source byte; lexing each
	// file's token stream first cost 24.4.
	var src int
	for _, sf := range corpus.Files {
		src += len(sf.Src)
	}
	parse := heapBytesPerRun(5, func() {
		for _, sf := range corpus.Files {
			if _, err := minic.ParseFile(sf.Path, sf.Src); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perByte := parse / float64(src); perByte > 12 {
		t.Errorf("parsing the corpus allocates %.1f B per source byte, want <= 12", perByte)
	} else {
		t.Logf("parsing the corpus allocates %.1f B per source byte", perByte)
	}

	// FormatExpr of every expression of the corpus: 32 520 allocations
	// before its buffer was pooled, two and a half per expression.
	var exprs []minic.Expr
	cb, err := NewCodebase(corpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range cb.Files() {
		for _, fn := range f.Funcs {
			minic.WalkExprs(fn.Body, func(e minic.Expr) { exprs = append(exprs, e) })
		}
	}
	n := testing.AllocsPerRun(5, func() {
		for _, e := range exprs {
			minic.FormatExpr(e)
		}
	})
	if n > 32520 {
		t.Errorf("formatting %d expressions made %.0f allocations, want <= 32520", len(exprs), n)
	} else {
		t.Logf("formatting %d expressions makes %.0f allocations", len(exprs), n)
	}

	// A 4-file commit, two function patches and two whole files, applied
	// and reverted in turn: about 85 KB, 237 KB with each file's token
	// stream lexed whole and each function printed to a string to hash.
	var fwd, back []Change
	for i, f := range cb.Files()[:4] {
		if i < 2 {
			fn := f.Funcs[len(f.Funcs)-1]
			orig := minic.FormatFunc(fn)
			brace := strings.Index(orig, "{")
			fwd = append(fwd, Change{Path: f.Name, Func: fn.Name, Source: orig[:brace+1] + "\n\tint commit_probe;" + orig[brace+1:]})
			back = append(back, Change{Path: f.Name, Func: fn.Name, Source: orig})
			continue
		}
		orig := corpus.Files[i].Src
		fwd = append(fwd, Change{Path: f.Name, Source: orig + "\nstatic int commit_probe(void)\n{\n\treturn 0;\n}\n"})
		back = append(back, Change{Path: f.Name, Source: orig})
	}
	inc := NewIncremental(cb, store.NewMemory(0))
	inc.RunOne(compileChecker(t), Options{})
	var flip bool
	commit := heapBytesPerRun(20, func() {
		changes := fwd
		if flip = !flip; !flip {
			changes = back
		}
		if _, err := inc.ApplyChangeset(changes); err != nil {
			t.Fatal(err)
		}
	})
	if commit > 112<<10 {
		t.Errorf("a 4-file commit allocates %.0f B, want <= %d", commit, 112<<10)
	} else {
		t.Logf("a 4-file commit allocates %.0f B", commit)
	}
}
