package scan

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"

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
		parent := cb.Snapshot()
		before(parent)
		if _, err := inc.ApplyChangeset(changes); err != nil {
			t.Fatal(err)
		}
		after(parent, cb.Snapshot(), touched...)
	}

	commit([]Change{replace(a)}, a)
	commit([]Change{patch(b)}, b)
	commit([]Change{patch(a)}, a)
	// A replace and a patch of the same file in one changeset touch it once.
	cs := replace(c)
	commit([]Change{cs, {Path: cs.Path, Func: cb.Files()[c].Funcs[0].Name, Source: tweakedFunc(t, cb, c, 0)}}, c)
	commit([]Change{patch(a), patch(c)}, a, c)

	parent := cb.Snapshot()
	before(parent)
	if _, err := inc.ApplyChangeset([]Change{patch(b), {Path: cb.Files()[b].Name, Func: "no_such_func", Source: "void no_such_func(void)\n{\n}\n"}}); err == nil {
		t.Fatal("changeset patching a missing function committed")
	}
	if _, err := inc.ApplyChangeset([]Change{patch(a), {Path: cb.Files()[b].Name, Source: "int broken("}}); err == nil {
		t.Fatal("changeset with a broken source committed")
	}
	if cb.Snapshot() != parent {
		t.Fatal("rejected changeset published a snapshot")
	}
}

// TestSnapshotFileIndex runs memoScript and checks FileIndex around
// every commit: each file's path maps to its index in the parent and in
// its successor, an unknown path maps to -1, and every generation looks
// paths up in the one map NewCodebase built.
func TestSnapshotFileIndex(t *testing.T) {
	cb := buildCodebase(t)
	first := reflect.ValueOf(cb.Snapshot().index).UnsafePointer()
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
	if got, want := memoHashes(cb.Snapshot()), memoHashes(cold.Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatal("live snapshot's function hashes differ from a cold parse of its corpus")
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
	want := memoHashes(cold.Snapshot())
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
		memoHashes(cb.Snapshot())
		return nil
	})
}

// memoPairs are 20 (checker, engine) fingerprint pairs — more than
// maxSumSets, so reading them all evicts — in checker-major order: each
// checker fingerprint comes with two engine fingerprints, back to back,
// so a memo that told pairs apart by checker alone answers the second
// with the first's digests.
func memoPairs() [][2]string {
	var pairs [][2]string
	for c := 0; c < 10; c++ {
		for e := 0; e < 2; e++ {
			pairs = append(pairs, [2]string{store.Hash("ck", strconv.Itoa(c)), store.Hash("eng", strconv.Itoa(e))})
		}
	}
	return pairs
}

// wantDigests hashes the key of every function of s under pair p from
// scratch, per file.
func wantDigests(s *Snapshot, p [2]string) [][]store.Digest {
	out := make([][]store.Digest, len(s.files))
	for i, f := range s.files {
		for j := range f.Funcs {
			out[i] = append(out[i], store.Key{FuncHash: s.FuncHash(i, j), CheckerFP: p[0], EngineFP: p[1]}.Digest())
		}
	}
	return out
}

// checkDigests reads s's memoized key digests of every file under every
// pair, in order, and compares each with its key hashed from scratch.
func checkDigests(t *testing.T, s *Snapshot, pairs [][2]string) {
	t.Helper()
	for _, p := range pairs {
		want := wantDigests(s, p)
		for i := range s.files {
			if got := s.keyDigests(i, p[0], p[1]); !slices.Equal(got, want[i]) {
				t.Fatalf("generation %d, file %d, pair %.8s/%.8s: memoized digests differ from Key.Digest", s.gen, i, p[0], p[1])
			}
		}
	}
}

// checkDigestSharing asserts that, under pair p, next shares parent's
// digest slice for exactly the files the commit did not touch.
func checkDigestSharing(t *testing.T, parent, next *Snapshot, p [2]string, touched ...int) {
	t.Helper()
	for i := range next.files {
		if len(next.files[i].Funcs) == 0 || len(parent.files[i].Funcs) == 0 {
			continue
		}
		shared := &next.keyDigests(i, p[0], p[1])[0] == &parent.keyDigests(i, p[0], p[1])[0]
		if shared != !slices.Contains(touched, i) {
			t.Errorf("generation %d, file %d: digests shared with parent = %v, touched = %v",
				next.gen, i, shared, slices.Contains(touched, i))
		}
	}
}

// TestSnapshotMemoDigests replays memoScript with every parent's key
// digests read under 20 fingerprint pairs before each commit, so every
// ring evicts. After each commit the successor shares the digests of
// untouched files with its parent and never those of a touched file, and
// every digest it memoizes equals store.Key{FuncHash, CheckerFP,
// EngineFP}.Digest(). Then four readers walk the pairs over a pinned
// snapshot's memos, and the live one's, while eight commits land; the
// pinned answers must equal keys hashed from a cold parse.
func TestSnapshotMemoDigests(t *testing.T) {
	cb := buildCodebase(t)
	inc := NewIncremental(cb, store.NewMemory(0))
	pairs := memoPairs()
	last := pairs[len(pairs)-1]
	memoScript(t, inc, func(parent *Snapshot) { checkDigests(t, parent, pairs) }, func(parent, next *Snapshot, touched ...int) {
		checkDigestSharing(t, parent, next, last, touched...)
		checkDigests(t, next, pairs)
	})

	cold, err := NewCodebase(corpusAt(cb))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][][]store.Digest, len(pairs))
	for k, p := range pairs {
		want[k] = wantDigests(cold.Snapshot(), p)
	}
	pinned := cb.Pin()
	defer pinned.Release()
	raceMemoReaders(t, inc, func(g int) error {
		for n := range pairs {
			k := (n + 5*g) % len(pairs)
			p := pairs[k]
			for i := range pinned.files {
				if got := pinned.keyDigests(i, p[0], p[1]); !slices.Equal(got, want[k][i]) {
					return fmt.Errorf("pinned file %d, pair %d: digests differ from a cold parse's keys", i, k)
				}
			}
		}
		live := cb.Snapshot()
		for i := range live.files {
			live.keyDigests(i, last[0], last[1])
		}
		return nil
	})
}
