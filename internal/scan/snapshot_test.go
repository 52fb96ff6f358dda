package scan

import (
	"math/rand"
	"reflect"
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

// TestSnapshotMemoMatchesColdParse runs a seeded mix of sync and async
// changesets — a whole-file replace, a patch, a patch after a replace
// of the same file, and rejected changesets of both kinds — with every
// parent's memos filled before each commit. Each successor must share
// the memos of the files it kept and only those, and at the end every
// FuncHash of the live snapshot must equal a cold parse's.
func TestSnapshotMemoMatchesColdParse(t *testing.T) {
	cb := buildCodebase(t)
	inc := NewIncremental(cb, store.NewMemory(0))
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
	commit := func(async bool, changes []Change, touched ...int) {
		t.Helper()
		parent := cb.Snapshot()
		memoHashes(parent)
		var err error
		if async {
			_, err = inc.ApplyChangesetAsync(changes).Result()
		} else {
			_, err = inc.ApplyChangeset(changes)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkMemoSharing(t, parent, cb.Snapshot(), touched...)
	}

	commit(false, []Change{replace(a)}, a)
	commit(true, []Change{patch(b)}, b)
	commit(false, []Change{patch(a)}, a)
	// A replace and a patch of the same file in one changeset touch it once.
	cs := replace(c)
	commit(true, []Change{cs, {Path: cs.Path, Func: cb.Files()[c].Funcs[0].Name, Source: tweakedFunc(t, cb, c, 0)}}, c)
	commit(false, []Change{patch(a), patch(c)}, a, c)

	// A rejected sync changeset publishes nothing; a rejected async one
	// publishes an empty commit that keeps every memo.
	parent := cb.Snapshot()
	memoHashes(parent)
	if _, err := inc.ApplyChangeset([]Change{patch(b), {Path: cb.Files()[b].Name, Func: "no_such_func", Source: "void no_such_func(void)\n{\n}\n"}}); err == nil {
		t.Fatal("changeset patching a missing function committed")
	}
	if cb.Snapshot() != parent {
		t.Fatal("rejected sync changeset published a snapshot")
	}
	if _, err := inc.ApplyChangesetAsync([]Change{patch(a), {Path: cb.Files()[b].Name, Source: "int broken("}}).Result(); err == nil {
		t.Fatal("async changeset with a broken source committed")
	}
	checkMemoSharing(t, parent, cb.Snapshot())

	cold, err := NewCodebase(corpusAt(cb))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := memoHashes(cb.Snapshot()), memoHashes(cold.Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatal("live snapshot's function hashes differ from a cold parse of its corpus")
	}
}

// TestSnapshotMemoConcurrentReaders has four goroutines hash a pinned
// snapshot — two through FuncHash, two through unitHashes, starting
// from cold memos — and the live one, while sync and async commits land
// and read their parents' memos. Every answer about the pinned snapshot
// must equal a cold parse's.
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
	var units []unit
	for i, f := range pinned.files {
		for j := range f.Funcs {
			units = append(units, unit{file: i, fn: j})
		}
	}
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
				var got []string
				if g%2 == 0 {
					got = pinned.unitHashes(units)
				} else {
					got = make([]string, len(units))
					for k, u := range units {
						got[k] = pinned.FuncHash(u.file, u.fn)
					}
				}
				for k, u := range units {
					if got[k] != want[u.file][u.fn] {
						t.Errorf("reader %d: pinned FuncHash(%d, %d) = %s, want %s", g, u.file, u.fn, got[k], want[u.file][u.fn])
						return
					}
				}
				memoHashes(cb.Snapshot())
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for k, c := range changes {
		var err error
		if k%2 == 0 {
			_, err = inc.ApplyChangeset([]Change{c})
		} else {
			_, err = inc.ApplyChangesetAsync([]Change{c}).Result()
		}
		if err != nil {
			t.Error(err)
		}
	}
	close(done)
	wg.Wait()
}
