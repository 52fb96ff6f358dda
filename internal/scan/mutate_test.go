package scan

import (
	"strings"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/minic"
	"knighter/internal/store"
)

// pickFile returns the index of a corpus file with at least minFuncs
// functions.
func pickFile(t *testing.T, cb *Codebase, minFuncs int) int {
	t.Helper()
	for i, f := range cb.Files() {
		if len(f.Funcs) >= minFuncs {
			return i
		}
	}
	t.Fatalf("no corpus file with >= %d functions", minFuncs)
	return -1
}

// canonicalize replaces file i with its canonical rendering, so that
// later patches (which re-render the file) shift no sibling positions
// beyond those the patch itself moves.
func canonicalize(t *testing.T, inc *Incremental, i int) {
	t.Helper()
	cb := inc.Codebase()
	applyOne(t, inc, Change{Path: cb.Files()[i].Name, Source: minic.FormatFile(cb.Files()[i])})
}

// applyOne commits a one-change changeset: the write path of a
// single-file edit.
func applyOne(t *testing.T, inc *Incremental, c Change) *Changeset {
	t.Helper()
	cs, err := inc.ApplyChangeset([]Change{c})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// tweakedFunc renders function j of file i with an extra (inert) local
// declaration, producing a valid patch whose analysis result is
// unchanged but whose content hash is not.
func tweakedFunc(t *testing.T, cb *Codebase, i, j int) string {
	t.Helper()
	src := minic.FormatFunc(cb.Files()[i].Funcs[j])
	brace := strings.Index(src, "{")
	if brace < 0 {
		t.Fatalf("no body in rendered function:\n%s", src)
	}
	return src[:brace+1] + "\n\tint patched_probe;" + src[brace+1:]
}

func TestPatchMissesOnlyThePatchedFunction(t *testing.T) {
	cb := buildCodebase(t)
	ck := compileChecker(t)
	st := store.NewMemory(0)
	inc := NewIncremental(cb, st)

	i := pickFile(t, cb, 2)
	path := cb.Files()[i].Name
	canonicalize(t, inc, i)
	inc.RunOne(ck, Options{Workers: 1}) // warm everything
	total := inc.RunOne(ck, Options{Workers: 1})
	if total.CacheMisses != 0 {
		t.Fatalf("warm-up left %d misses", total.CacheMisses)
	}

	// Patch the last function: nothing below it shifts, so exactly one
	// function's hash changes.
	j := len(cb.Files()[i].Funcs) - 1
	name := cb.Files()[i].Funcs[j].Name
	m := applyOne(t, inc, Change{Path: path, Func: name, Source: tweakedFunc(t, cb, i, j)})
	if m.Changed != 1 || len(m.StaleHashes) != 1 {
		t.Fatalf("mutation = %+v, want exactly one changed function", m)
	}
	if m.StoreInvalidated != 1 {
		t.Fatalf("store invalidated %d entries, want 1 (one checker, one engine config)", m.StoreInvalidated)
	}

	rescan := inc.RunOne(ck, Options{Workers: 1})
	if rescan.CacheMisses != 1 {
		t.Fatalf("re-scan after one-function patch missed %d times, want 1", rescan.CacheMisses)
	}
	if rescan.CacheHits != total.CacheHits-1 {
		t.Fatalf("re-scan hits = %d, want %d (all but the patched function)", rescan.CacheHits, total.CacheHits-1)
	}

	// Determinism: the incremental re-scan must be byte-identical to a
	// cold scan of the mutated corpus.
	cold, err := NewCodebase(cb.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	want := resultBytes(t, cold.RunOne(ck, Options{Workers: 1}))
	if got := resultBytes(t, rescan); got != want {
		t.Fatal("post-patch incremental scan differs from cold scan of the mutated corpus")
	}
	warm := inc.RunOne(ck, Options{Workers: 1})
	if warm.CacheMisses != 0 {
		t.Fatalf("second post-patch scan missed %d times", warm.CacheMisses)
	}
	if got := resultBytes(t, warm); got != want {
		t.Fatal("fully-warm post-patch scan differs from cold scan of the mutated corpus")
	}
}

func TestPatchConfinesMissesToTheFile(t *testing.T) {
	cb := buildCodebase(t)
	ck := compileChecker(t)
	inc := NewIncremental(cb, store.NewMemory(0))

	i := pickFile(t, cb, 3)
	path := cb.Files()[i].Name
	canonicalize(t, inc, i)
	inc.RunOne(ck, Options{Workers: 1})

	// Patch the FIRST function with a body that is one line longer:
	// every sibling below it shifts, so their hashes change too — but
	// the damage must stay inside this file.
	name := cb.Files()[i].Funcs[0].Name
	m := applyOne(t, inc, Change{Path: path, Func: name, Source: tweakedFunc(t, cb, i, 0)})
	if m.Changed < 1 || m.Changed > len(cb.Files()[i].Funcs) {
		t.Fatalf("changed = %d, want within [1, %d]", m.Changed, len(cb.Files()[i].Funcs))
	}

	// Every other file re-scans without a single miss.
	var others []int
	for fi := range cb.Files() {
		if fi != i {
			others = append(others, fi)
		}
	}
	if res := inc.RunFiles(others, []checker.Checker{ck}, Options{Workers: 1}); res.CacheMisses != 0 {
		t.Fatalf("scan of untouched files missed %d times after a patch elsewhere", res.CacheMisses)
	}
	// And the patched file misses exactly on the changed functions.
	if res := inc.RunFiles([]int{i}, []checker.Checker{ck}, Options{Workers: 1}); res.CacheMisses != m.Changed {
		t.Fatalf("patched file missed %d times, want %d", res.CacheMisses, m.Changed)
	}
}

func TestReplaceDeleteFunctionKeepsSiblingsWarm(t *testing.T) {
	cb := buildCodebase(t)
	ck := compileChecker(t)
	inc := NewIncremental(cb, store.NewMemory(0))

	i := pickFile(t, cb, 3)
	path := cb.Files()[i].Name
	canonicalize(t, inc, i)
	inc.RunOne(ck, Options{Workers: 1})
	before := len(cb.Files()[i].Funcs)

	// Drop the last function: the survivors keep their text, position,
	// and file context, so the replacement costs zero re-analysis.
	f := cb.Files()[i]
	m := applyOne(t, inc, Change{Path: path, Source: minic.FormatFile(&minic.File{
		Name: f.Name, Structs: f.Structs, Globals: f.Globals, Funcs: f.Funcs[:before-1],
	})})
	if got := m.Files[0].Funcs; got != before-1 {
		t.Fatalf("funcs after delete = %d, want %d", got, before-1)
	}
	if m.Changed != 0 {
		t.Fatalf("deleting the last function changed %d sibling hashes, want 0", m.Changed)
	}
	if len(m.StaleHashes) != 1 {
		t.Fatalf("stale hashes = %d, want 1 (the deleted function)", len(m.StaleHashes))
	}
	if res := inc.RunFiles([]int{i}, []checker.Checker{ck}, Options{Workers: 1}); res.CacheMisses != 0 {
		t.Fatalf("re-scan after delete missed %d times, want 0", res.CacheMisses)
	}

	// Byte-identical to a cold scan of the shrunken corpus.
	cold, err := NewCodebase(cb.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	want := resultBytes(t, cold.RunOne(ck, Options{Workers: 1}))
	if got := resultBytes(t, inc.RunOne(ck, Options{Workers: 1})); got != want {
		t.Fatal("post-delete incremental scan differs from cold scan")
	}
}

func TestMutationRejectsBadInput(t *testing.T) {
	cb := buildCodebase(t)
	inc := NewIncremental(cb, store.NewMemory(0))
	path := cb.Files()[0].Name
	fn := cb.Files()[0].Funcs[0]
	good := minic.FormatFunc(fn)

	cases := []struct {
		name   string
		change Change
	}{
		{"replace unknown file", Change{Path: "no/such/file.c", Source: good}},
		{"replace parse error", Change{Path: path, Source: "int broken("}},
		{"patch unknown file", Change{Path: "no/such/file.c", Func: fn.Name, Source: good}},
		{"patch unknown function", Change{Path: path, Func: "no_such_function", Source: good}},
		{"patch parse error", Change{Path: path, Func: fn.Name, Source: "int broken("}},
		{"patch with two functions", Change{Path: path, Func: fn.Name,
			Source: good + "\n" + strings.Replace(good, fn.Name, fn.Name+"_b", 1)}},
		{"patch smuggling a global", Change{Path: path, Func: fn.Name, Source: "int smuggled_global;\n" + good}},
	}
	for _, tc := range cases {
		if _, err := inc.ApplyChangeset([]Change{tc.change}); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if g := cb.Generation(); g != 0 {
		t.Fatalf("rejected mutations bumped generation to %d", g)
	}
}

func TestGenerationAndFuncCountTrackMutations(t *testing.T) {
	cb := buildCodebase(t)
	inc := NewIncremental(cb, store.NewMemory(0))
	if cb.Generation() != 0 {
		t.Fatalf("fresh codebase generation = %d", cb.Generation())
	}
	funcs := cb.NumFuncs()
	i := pickFile(t, cb, 2)
	canonicalize(t, inc, i)
	if cb.Generation() != 1 {
		t.Fatalf("generation after one replace = %d", cb.Generation())
	}
	if cb.NumFuncs() != funcs {
		t.Fatalf("canonicalizing changed the function count: %d -> %d", funcs, cb.NumFuncs())
	}
	name := cb.Files()[i].Funcs[0].Name
	applyOne(t, inc, Change{Path: cb.Files()[i].Name, Func: name, Source: tweakedFunc(t, cb, i, 0)})
	if cb.Generation() != 2 {
		t.Fatalf("generation after patch = %d", cb.Generation())
	}
}
