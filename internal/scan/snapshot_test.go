package scan

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/engine"
	"knighter/internal/kernel"
	"knighter/internal/minic"
	"knighter/internal/store"
)

// memoHashes reads every function hash of s, per file, filling its
// memos on the way.
func memoHashes(s *Snapshot) [][]string {
	out := make([][]string, len(s.files))
	for i, f := range s.files {
		for j := range f.Funcs {
			out[i] = append(out[i], s.FuncHash(i, j))
		}
	}
	return out
}

// checkMemoSharing asserts that next shares parent's hash memo for
// exactly the files the commit did not touch.
func checkMemoSharing(t *testing.T, parent, next *Snapshot, touched ...int) {
	t.Helper()
	isTouched := map[int]bool{}
	for _, i := range touched {
		isTouched[i] = true
	}
	for i := range next.memo {
		if shared := next.memo[i] == parent.memo[i]; shared == isTouched[i] {
			t.Errorf("generation %d, file %d: memo shared with parent = %v, touched = %v",
				next.gen, i, shared, isTouched[i])
		}
	}
}

// memoScript commits a seeded script of changesets through inc — a
// whole-file replace, a patch, a patch after a replace of the same file,
// a replace and a patch of one file in one changeset — then two
// rejected ones, neither of which may publish a snapshot. Around every
// commit, before sees the parent and after sees the parent, its
// successor and the files the commit touched.
func memoScript(t *testing.T, inc *Incremental, before func(parent *Snapshot), after func(parent, next *Snapshot, touched ...int)) {
	t.Helper()
	cb := inc.Codebase()
	r := rand.New(rand.NewSource(24))
	picked := pickFiles(t, cb, 8, 2)
	r.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	a, b, c := picked[0], picked[1], picked[2]

	patch := func(i int) Change {
		f := cb.Files()[i]
		j := r.Intn(len(f.Funcs))
		return Change{Path: f.Name, Func: f.Funcs[j].Name, Source: tweakedFunc(t, cb, i, j)}
	}
	replace := func(i int) Change {
		f := cb.Files()[i]
		return Change{Path: f.Name, Source: fuzzReplaceSrc(f, byte(r.Intn(2)))}
	}
	commit := func(changes []Change, touched ...int) {
		t.Helper()
		parent := cb.snap.Load()
		before(parent)
		if _, err := inc.ApplyChangeset(changes); err != nil {
			t.Fatal(err)
		}
		after(parent, cb.snap.Load(), touched...)
	}

	commit([]Change{replace(a)}, a)
	commit([]Change{patch(b)}, b)
	commit([]Change{patch(a)}, a)
	// A replace and a patch of the same file in one changeset touch it once.
	cs := replace(c)
	commit([]Change{cs, {Path: cs.Path, Func: cb.Files()[c].Funcs[0].Name, Source: tweakedFunc(t, cb, c, 0)}}, c)
	commit([]Change{patch(a), patch(c)}, a, c)

	parent := cb.snap.Load()
	before(parent)
	if _, err := inc.ApplyChangeset([]Change{patch(b), {Path: cb.Files()[b].Name, Func: "no_such_func", Source: "void no_such_func(void)\n{\n}\n"}}); err == nil {
		t.Fatal("changeset patching a missing function committed")
	}
	if _, err := inc.ApplyChangeset([]Change{patch(a), {Path: cb.Files()[b].Name, Source: "int broken("}}); err == nil {
		t.Fatal("changeset with a broken source committed")
	}
	if cb.snap.Load() != parent {
		t.Fatal("rejected changeset published a snapshot")
	}
}

// TestSnapshotFileIndex runs memoScript and checks FileIndex around
// every commit: each file's path maps to its index in the parent and in
// its successor, an unknown path maps to -1, and every generation looks
// paths up in the one map NewCodebase built.
func TestSnapshotFileIndex(t *testing.T) {
	cb := buildCodebase(t)
	first := reflect.ValueOf(cb.snap.Load().index).UnsafePointer()
	check := func(s *Snapshot) {
		t.Helper()
		for i, f := range s.files {
			if got := s.FileIndex(f.Name); got != i {
				t.Fatalf("generation %d: FileIndex(%q) = %d, want %d", s.gen, f.Name, got, i)
			}
		}
		for _, path := range []string{"", "no/such/file.c", s.files[0].Name + "x"} {
			if got := s.FileIndex(path); got != -1 {
				t.Fatalf("generation %d: FileIndex(%q) = %d, want -1", s.gen, path, got)
			}
		}
		if reflect.ValueOf(s.index).UnsafePointer() != first {
			t.Fatalf("generation %d built its own path index", s.gen)
		}
	}
	memoScript(t, NewIncremental(cb, store.NewMemory(0)), check, func(parent, next *Snapshot, _ ...int) {
		check(parent)
		check(next)
	})
}

// TestFuncHashIsStoreHash holds the memo, which prints each function
// into one reused buffer, to the hash it stands for: store.Hash of the
// function's canonical text, its position and its file context, for
// every function of the corpus at seeds 1 and 2.
func TestFuncHashIsStoreHash(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		cb, err := NewCodebase(kernel.Generate(kernel.Config{Seed: seed, Scale: 0.25}))
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range cb.Files() {
			ctx := store.Hash("filectx:v1", f.Name, minic.FormatFile(&minic.File{Name: f.Name, Structs: f.Structs, Globals: f.Globals}))
			for j, fn := range f.Funcs {
				want := store.Hash("func:v2", ctx, fmt.Sprintf("%d:%d", fn.Pos.Line, fn.Pos.Col), minic.FormatFunc(fn))
				if got := cb.FuncHash(i, j); got != want {
					t.Fatalf("seed %d: FuncHash(%d, %d) = %s, store.Hash gives %s", seed, i, j, got, want)
				}
			}
		}
	}
}

// TestSnapshotMemoMatchesColdParse runs memoScript with every parent's
// hash memos filled before each commit. Each successor must share the
// memos of the files it kept and only those, and at the end every
// FuncHash of the live snapshot must equal a cold parse's.
func TestSnapshotMemoMatchesColdParse(t *testing.T) {
	cb := buildCodebase(t)
	inc := NewIncremental(cb, store.NewMemory(0))
	memoScript(t, inc, func(parent *Snapshot) { memoHashes(parent) }, func(parent, next *Snapshot, touched ...int) {
		checkMemoSharing(t, parent, next, touched...)
	})
	cold, err := NewCodebase(corpusAt(cb))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := memoHashes(cb.snap.Load()), memoHashes(cold.snap.Load()); !reflect.DeepEqual(got, want) {
		t.Fatal("live snapshot's function hashes differ from a cold parse of its corpus")
	}
}

// memoFootprints reads every function footprint of s from its memos,
// per file, filling them on the way.
func memoFootprints(s *Snapshot) [][]*minic.Footprint {
	out := make([][]*minic.Footprint, len(s.files))
	for i, f := range s.files {
		for j := range f.Funcs {
			out[i] = append(out[i], s.memo[i].footprint(f, j))
		}
	}
	return out
}

// TestSnapshotMemoFootprints runs memoScript with every parent's
// footprint memos filled before each commit. At the end every memoized
// footprint of the live snapshot must equal a fresh Reset of the same
// function in a cold parse of its corpus.
func TestSnapshotMemoFootprints(t *testing.T) {
	cb := buildCodebase(t)
	inc := NewIncremental(cb, store.NewMemory(0))
	memoScript(t, inc, func(parent *Snapshot) { memoFootprints(parent) }, func(parent, next *Snapshot, touched ...int) {})
	cold, err := NewCodebase(corpusAt(cb))
	if err != nil {
		t.Fatal(err)
	}
	got := memoFootprints(cb.snap.Load())
	for i, f := range cold.Files() {
		for j, fn := range f.Funcs {
			want := new(minic.Footprint)
			want.Reset(fn)
			if !reflect.DeepEqual(got[i][j], want) {
				t.Fatalf("%s: memoized footprint %+v, a fresh Reset gives %+v", fn.Name, got[i][j].Callees, want.Callees)
			}
		}
	}
}

// raceMemoReaders runs read on four goroutines (g = 0..3), over and over
// until eight commits, each patching one more file of inc's codebase,
// have landed; each reader runs at least once. A reader reports a wrong
// answer as an error.
func raceMemoReaders(t *testing.T, inc *Incremental, read func(g int) error) {
	t.Helper()
	cb := inc.Codebase()
	// Patches of eight distinct files, rendered before any goroutine
	// starts so the writer never calls t.Fatal off the test goroutine.
	var changes []Change
	for _, i := range pickFiles(t, cb, 8, 1) {
		f := cb.Files()[i]
		j := len(f.Funcs) - 1
		changes = append(changes, Change{Path: f.Name, Func: f.Funcs[j].Name, Source: tweakedFunc(t, cb, i, j)})
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := read(g); err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for _, c := range changes {
		if _, err := inc.ApplyChangeset([]Change{c}); err != nil {
			t.Error(err)
		}
	}
	close(done)
	wg.Wait()
}

// TestSnapshotMemoConcurrentReaders has four goroutines hash a pinned
// snapshot through FuncHash, starting from cold memos, and the live one,
// while commits land and read their parents' memos. Every answer about
// the pinned snapshot must equal a cold parse's.
func TestSnapshotMemoConcurrentReaders(t *testing.T) {
	cb := buildCodebase(t)
	inc := NewIncremental(cb, store.NewMemory(0))
	cold, err := NewCodebase(corpusAt(cb))
	if err != nil {
		t.Fatal(err)
	}
	want := memoHashes(cold.snap.Load())
	pinned := cb.Pin()
	defer pinned.Release()
	raceMemoReaders(t, inc, func(int) error {
		for i, f := range pinned.files {
			for j := range f.Funcs {
				if got := pinned.FuncHash(i, j); got != want[i][j] {
					return fmt.Errorf("pinned FuncHash(%d, %d) = %s, want %s", i, j, got, want[i][j])
				}
			}
		}
		memoHashes(cb.snap.Load())
		return nil
	})
}

// digestCheck is a memory tier that first checks every range call's
// ids against its keys: ids[i] must equal keys[i].Digest(), the key
// hashed whole.
type digestCheck struct {
	*store.Memory
	mu      sync.Mutex
	checked int // keys probed
	err     error
}

func (d *digestCheck) check(keys []store.Key, ids []store.Digest) {
	for i, k := range keys {
		if ids[i] != k.Digest() {
			d.mu.Lock()
			d.err = fmt.Errorf("key %.8s/%.8s/%.8s: the scheduler's id %x is not its Digest", k.FuncHash, k.CheckerFP, k.EngineFP, ids[i][:8])
			d.mu.Unlock()
			return
		}
	}
}

func (d *digestCheck) GetMany(ctx context.Context, keys []store.Key, ids []store.Digest, out [][]byte) {
	d.check(keys, ids)
	d.mu.Lock()
	d.checked += len(keys)
	d.mu.Unlock()
	d.Memory.GetMany(ctx, keys, ids, out)
}

func (d *digestCheck) PutMany(ctx context.Context, keys []store.Key, ids []store.Digest, payloads [][]byte) {
	d.check(keys, ids)
	d.Memory.PutMany(ctx, keys, ids, payloads)
}

// digestPasses runs s's every unit through inc's scheduler, whose store
// is d, under cks' riders, first with the default engine bounds
// and then with others, and fails unless every key each pass probed and
// stored went by its Digest and every (unit, rider) pair was probed.
func digestPasses(inc *Incremental, d *digestCheck, s *Snapshot, cks []checker.Checker) error {
	files := make([]int, len(s.files))
	for i := range files {
		files[i] = i
	}
	for _, opts := range []Options{{Workers: 2}, {Workers: 2, Engine: engine.Options{MaxPaths: 7}}} {
		d.mu.Lock()
		before := d.checked
		d.mu.Unlock()
		inc.runRiders(s, time.Now(), files, cks, opts, false)
		d.mu.Lock()
		probed, err := d.checked-before, d.err
		d.mu.Unlock()
		if err != nil {
			return err
		}
		// Other readers may probe at the same time, so this pass probed
		// at least its own keys.
		if want := s.numFuncs * len(cks); probed < want {
			return fmt.Errorf("generation %d: %d keys probed, want %d", s.gen, probed, want)
		}
	}
	return nil
}

// checkFuncParts asserts that next shares parent's function halves for
// exactly the files the commit did not touch, and that every half of
// next is store.FuncPart of its function's hash.
func checkFuncParts(t *testing.T, parent, next *Snapshot, touched ...int) {
	t.Helper()
	for i := range next.files {
		hashes, parts := next.funcHashes(i)
		for j, h := range hashes {
			if parts[j] != store.FuncPart(h) {
				t.Fatalf("generation %d, file %d, function %d: memoized half is not FuncPart of its hash", next.gen, i, j)
			}
		}
		if len(parts) == 0 || len(parent.files[i].Funcs) == 0 {
			continue
		}
		_, was := parent.funcHashes(i)
		if shared := &parts[0] == &was[0]; shared == slices.Contains(touched, i) {
			t.Errorf("generation %d, file %d: function halves shared with parent = %v, touched = %v",
				next.gen, i, shared, slices.Contains(touched, i))
		}
	}
}

// TestSchedulerDigestsAreKeyDigests replays memoScript with a scheduler
// pass over the parent before each commit and over its successor after:
// every id the scheduler assembles from a memoized function half and a
// rider half, for every unit and rider, must equal the key's Digest,
// and the successor shares the function halves of untouched files with
// its parent and never those of a touched file. Then four readers run
// passes over a pinned snapshot, and the live one, while eight commits
// land: the pinned ids must stay Digests of keys whose halves a cold
// parse of the pinned corpus gives.
func TestSchedulerDigestsAreKeyDigests(t *testing.T) {
	cb := buildCodebase(t)
	ck := compileChecker(t)
	var riders []checker.Checker
	for _, name := range []string{"scan_npd_b", "scan_npd_c"} {
		rev, err := ckdsl.CompileSource(strings.ReplaceAll(scanNPD, "scan_npd", name))
		if err != nil {
			t.Fatal(err)
		}
		riders = append(riders, rev)
	}
	riders = append(riders, ck)
	d := &digestCheck{Memory: store.NewMemory(0)}
	inc := NewIncremental(cb, d)
	pass := func(s *Snapshot) {
		t.Helper()
		if err := digestPasses(inc, d, s, riders); err != nil {
			t.Fatal(err)
		}
	}
	memoScript(t, inc, pass, func(parent, next *Snapshot, touched ...int) {
		pass(next)
		checkFuncParts(t, parent, next, touched...)
	})

	cold, err := NewCodebase(corpusAt(cb))
	if err != nil {
		t.Fatal(err)
	}
	want := memoHashes(cold.snap.Load())
	pinned := cb.Pin()
	defer pinned.Release()
	raceMemoReaders(t, inc, func(int) error {
		if err := digestPasses(inc, d, pinned.Snapshot, riders); err != nil {
			return err
		}
		for i := range pinned.files {
			hashes, parts := pinned.funcHashes(i)
			for j := range hashes {
				if hashes[j] != want[i][j] || parts[j] != store.FuncPart(want[i][j]) {
					return fmt.Errorf("pinned file %d, function %d: halves differ from a cold parse's", i, j)
				}
			}
		}
		return digestPasses(inc, d, cb.snap.Load(), riders)
	})
}
