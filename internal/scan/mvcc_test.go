package scan

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"knighter/internal/checker"
	"knighter/internal/kernel"
	"knighter/internal/minic"
	"knighter/internal/store"
)

// corpusAt deep-copies the codebase's current corpus sources so a cold
// codebase can be rebuilt later from exactly this state, whatever
// mutations land in between.
func corpusAt(cb *Codebase) *kernel.Corpus {
	files := make([]*kernel.SourceFile, len(cb.Corpus.Files))
	for i, f := range cb.Corpus.Files {
		cp := *f
		files[i] = &cp
	}
	return &kernel.Corpus{Files: files}
}

// coldScanOf parses the given corpus state from scratch and scans it —
// the ground truth a pinned snapshot must reproduce byte-for-byte.
func coldScanOf(t *testing.T, corpus *kernel.Corpus) *Result {
	t.Helper()
	cold, err := NewCodebase(corpus)
	if err != nil {
		t.Fatal(err)
	}
	return cold.RunOne(compileChecker(t), Options{Workers: 1})
}

// TestSnapshotReaderSeesPinnedGeneration is the tentpole acceptance
// criterion: a scan admitted (pinned) before a changeset commits sees
// the pre-changeset corpus byte-identically — as if the writer never
// existed — while a scan admitted after sees the post-changeset corpus.
func TestSnapshotReaderSeesPinnedGeneration(t *testing.T) {
	cb := buildCodebase(t)
	ck := compileChecker(t)
	inc := NewIncremental(cb, store.NewMemory(0))

	files := pickFiles(t, cb, 2, 2)
	for _, i := range files {
		canonicalize(t, inc, i)
	}
	before := corpusAt(cb)
	genBefore := cb.Generation()

	// Admit a reader now: it pins the pre-changeset generation.
	pinned := cb.Pin()
	defer pinned.Release()
	if pinned.Generation() != genBefore {
		t.Fatalf("pinned generation = %d, want %d", pinned.Generation(), genBefore)
	}

	// Commit a changeset behind the pinned reader's back.
	var changes []Change
	for _, i := range files {
		j := len(cb.Files()[i].Funcs) - 1
		changes = append(changes, Change{
			Path:   cb.Files()[i].Name,
			Func:   cb.Files()[i].Funcs[j].Name,
			Source: tweakedFunc(t, cb, i, j),
		})
	}
	if _, err := inc.ApplyChangeset(changes); err != nil {
		t.Fatal(err)
	}
	if cb.Generation() != genBefore+1 {
		t.Fatalf("live generation = %d, want %d", cb.Generation(), genBefore+1)
	}

	// The pinned reader scans the OLD world, byte-identically.
	all := make([]int, len(pinned.Files()))
	for i := range all {
		all[i] = i
	}
	old := inc.RunBatchAt(pinned.Snapshot, []checker.Checker{ck}, all, Options{Workers: 1})[0]
	if old.Generation != genBefore {
		t.Fatalf("pinned scan reported generation %d, want %d", old.Generation, genBefore)
	}
	if got, want := resultBytes(t, old), resultBytes(t, coldScanOf(t, before)); got != want {
		t.Fatalf("pinned scan != cold scan of pinned state\ngot:  %s\nwant: %s", got, want)
	}

	// A fresh reader scans the NEW world, byte-identically.
	now := inc.RunOne(ck, Options{Workers: 1})
	if now.Generation != genBefore+1 {
		t.Fatalf("fresh scan reported generation %d, want %d", now.Generation, genBefore+1)
	}
	if got, want := resultBytes(t, now), resultBytes(t, coldScanOf(t, corpusAt(cb))); got != want {
		t.Fatalf("fresh scan != cold scan of live state\ngot:  %s\nwant: %s", got, want)
	}
}

// TestPinnedSnapshotsCountsSupersededGenerations: pins at the live
// generation are invisible (nothing is held back), pins at superseded
// generations count once per distinct generation, and releasing the
// last pin of a generation drops it from the gauge.
func TestPinnedSnapshotsCountsSupersededGenerations(t *testing.T) {
	cb := buildCodebase(t)
	inc := NewIncremental(cb, store.NewMemory(0))

	p1 := cb.Pin()
	p2 := cb.Pin()
	if n := cb.PinnedSnapshots(); n != 0 {
		t.Fatalf("pins at live generation counted as %d superseded, want 0", n)
	}

	canonicalize(t, inc, 0) // bump the generation; p1/p2 now pin an old one
	if n := cb.PinnedSnapshots(); n != 1 {
		t.Fatalf("PinnedSnapshots = %d after commit, want 1 (one distinct old generation)", n)
	}

	p1.Release()
	if n := cb.PinnedSnapshots(); n != 1 {
		t.Fatalf("PinnedSnapshots = %d after releasing one of two pins, want 1", n)
	}
	p2.Release()
	p2.Release() // idempotent: double release must not underflow
	if n := cb.PinnedSnapshots(); n != 0 {
		t.Fatalf("PinnedSnapshots = %d after releasing all pins, want 0", n)
	}
}

// TestConcurrentChangesetsCommitContiguously: eight writers race
// ApplyChangeset, and every third call carries a broken source behind a
// good patch. The commits that land take exactly the generations
// base+1 … base+k, each once; a rejected changeset takes none and
// applies none of its changes; and the live corpus, scanned through the
// cache the commits invalidated, equals a cold parse of its sources.
func TestConcurrentChangesetsCommitContiguously(t *testing.T) {
	cb := buildCodebase(t)
	ck := compileChecker(t)
	inc := NewIncremental(cb, store.NewMemory(0))
	inc.RunOne(ck, Options{Workers: 1})
	base := cb.Generation()

	// Each writer owns one file and alternates a patch of its last
	// function with the file's canonical form; only a broken call carries
	// two changes. Sources render before any goroutine starts, so no
	// writer calls t.Fatal.
	const writers, calls = 8, 6
	plans := make([][][]Change, writers)
	wantCommits := 0
	for g, i := range pickFiles(t, cb, writers, 1) {
		f := cb.Files()[i]
		j := len(f.Funcs) - 1
		patch := Change{Path: f.Name, Func: f.Funcs[j].Name, Source: tweakedFunc(t, cb, i, j)}
		canon := Change{Path: f.Name, Source: minic.FormatFile(f)}
		for n := 0; n < calls; n++ {
			switch {
			case (g*calls+n)%3 == 2:
				plans[g] = append(plans[g], []Change{patch, {Path: f.Name, Source: "int broken("}})
			case n%2 == 0:
				plans[g] = append(plans[g], []Change{patch})
				wantCommits++
			default:
				plans[g] = append(plans[g], []Change{canon})
				wantCommits++
			}
		}
	}

	gens := make([][]int64, writers)
	var wg sync.WaitGroup
	for g := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n, changes := range plans[g] {
				cs, err := inc.ApplyChangeset(changes)
				if broken := len(changes) == 2; broken != (err != nil) {
					t.Errorf("writer %d, call %d: broken = %v, err = %v", g, n, broken, err)
					continue
				}
				if err == nil {
					gens[g] = append(gens[g], cs.Generation)
				}
			}
		}()
	}
	wg.Wait()

	got := slices.Concat(gens...)
	slices.Sort(got)
	if len(got) != wantCommits {
		t.Fatalf("%d changesets committed, want %d", len(got), wantCommits)
	}
	for k, gen := range got {
		if gen != base+int64(k)+1 {
			t.Fatalf("committed generations %v, want exactly %d…%d", got, base+1, base+int64(wantCommits))
		}
	}
	if live := cb.Generation(); live != base+int64(wantCommits) {
		t.Fatalf("live generation = %d, want %d", live, base+int64(wantCommits))
	}
	want := resultBytes(t, coldScanOf(t, corpusAt(cb)))
	if got := resultBytes(t, inc.RunOne(ck, Options{Workers: 1})); got != want {
		t.Fatalf("corpus after concurrent changesets != cold parse\ngot:  %s\nwant: %s", got, want)
	}
}

// TestWaitForGeneration covers the min_generation primitive: already
// satisfied → immediate true; satisfied by a later commit → true; never
// satisfied within the deadline → false.
func TestWaitForGeneration(t *testing.T) {
	cb := buildCodebase(t)
	inc := NewIncremental(cb, store.NewMemory(0))

	ctx := context.Background()
	if !cb.WaitForGeneration(ctx, cb.Generation()) {
		t.Fatal("WaitForGeneration(current) = false, want immediate true")
	}

	target := cb.Generation() + 1
	done := make(chan bool, 1)
	go func() {
		wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		done <- cb.WaitForGeneration(wctx, target)
	}()
	canonicalize(t, inc, 0)
	if !<-done {
		t.Fatalf("WaitForGeneration(%d) = false after commit reached it", target)
	}

	wctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if cb.WaitForGeneration(wctx, cb.Generation()+100) {
		t.Fatal("WaitForGeneration(unreachable) = true, want timeout false")
	}
}
