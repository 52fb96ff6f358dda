package scan

import (
	"context"
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

// TestAsyncChangesetTokensCommitInOrder: async changesets reserve
// generation tokens at submission and commit in token order; a failed
// async changeset burns its token (an empty commit) without touching
// the corpus, so later tokens — and min_generation waits on the failed
// one — still resolve.
func TestAsyncChangesetTokensCommitInOrder(t *testing.T) {
	cb := buildCodebase(t)
	inc := NewIncremental(cb, store.NewMemory(0))
	canonicalize(t, inc, 0)
	base := cb.Generation()
	path := cb.Files()[0].Name
	goodSrc := minic.FormatFile(cb.Files()[0])

	a := inc.ApplyChangesetAsync([]Change{{Path: path, Source: goodSrc}})
	b := inc.ApplyChangesetAsync([]Change{{Path: path, Source: "int broken("}})
	c := inc.ApplyChangesetAsync([]Change{{Path: path, Source: goodSrc}})

	if a.Generation != base+1 || b.Generation != base+2 || c.Generation != base+3 {
		t.Fatalf("tokens = %d,%d,%d, want %d,%d,%d",
			a.Generation, b.Generation, c.Generation, base+1, base+2, base+3)
	}

	if cs, err := a.Result(); err != nil || cs.Generation != base+1 {
		t.Fatalf("changeset A: cs=%+v err=%v", cs, err)
	}
	if _, err := b.Result(); err == nil {
		t.Fatal("changeset B (broken source) committed, want error")
	}
	if cs, err := c.Result(); err != nil || cs.Generation != base+3 {
		t.Fatalf("changeset C: cs=%+v err=%v", cs, err)
	}

	// B's failure burned generation base+2 without corrupting state: the
	// live corpus still equals a cold parse of its own sources.
	if got := cb.Generation(); got != base+3 {
		t.Fatalf("final generation = %d, want %d", got, base+3)
	}
	want := resultBytes(t, coldScanOf(t, corpusAt(cb)))
	if got := resultBytes(t, inc.RunOne(compileChecker(t), Options{Workers: 1})); got != want {
		t.Fatalf("post-async corpus != cold parse\ngot:  %s\nwant: %s", got, want)
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
