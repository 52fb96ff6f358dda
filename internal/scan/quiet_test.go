package scan

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/engine"
	"knighter/internal/kernel"
	"knighter/internal/minic"
	"knighter/internal/store"
)

// quietCodebase parses the batch-equivalence corpus into a codebase of
// its own, so its footprint memo starts empty whatever ran before.
func quietCodebase(t *testing.T) *Codebase {
	t.Helper()
	corpus := fuzzCorpus()
	corpus.Files = append(corpus.Files, &kernel.SourceFile{Path: "drivers/fz/fork.c", Src: batchForkFile})
	cb, err := NewCodebase(corpus)
	if err != nil {
		t.Fatal(err)
	}
	return cb
}

// engineAnswer is what a checker's entry of a pass must equal: the
// uncached scan, which explores the checker on every function, quiet or
// not; and the store.Encode bytes of the engine's own result for every
// function, in file and function order, as the store must hold them.
type engineAnswer struct {
	scan   *Result
	stored [][]byte
}

func answerOf(cb *Codebase, ck checker.Checker, opts Options) engineAnswer {
	a := engineAnswer{scan: cb.RunOne(ck, opts)}
	eo := opts.engineOptions([]checker.Checker{ck})
	for _, f := range cb.Files() {
		for _, fn := range f.Funcs {
			a.stored = append(a.stored, store.Encode(engine.AnalyzeFunc(f, fn, eo)))
		}
	}
	return a
}

// checkAnswer fails unless res, ck's entry of a pass, answers what the
// uncached scan does, answered no more than its misses quietly, and left
// want's results in st under ck's keys.
func checkAnswer(t *testing.T, what string, cb *Codebase, st store.Store, ck checker.Checker, res *Result, want engineAnswer, opts Options) {
	t.Helper()
	if got, want := resultBytes(t, res), resultBytes(t, want.scan); got != want {
		t.Fatalf("%s: %s differs from the uncached scan:\n got %s\nwant %s", what, ck.Name(), got, want)
	}
	if res.QuietResults > res.CacheMisses {
		t.Fatalf("%s: %s answered %d of %d misses quietly", what, ck.Name(), res.QuietResults, res.CacheMisses)
	}
	fp := checkerFingerprint(ck)
	u := 0
	for i, f := range cb.Files() {
		for j, fn := range f.Funcs {
			key := store.Key{FuncHash: cb.FuncHash(i, j), CheckerFP: fp, EngineFP: opts.Engine.Fingerprint()}
			if stored := storedPayload(st, key); stored == nil || !bytes.Equal(stored, want.stored[u]) {
				t.Fatalf("%s: %s stored for %s\n% x\nwant % x", what, ck.Name(), fn.Name, stored, want.stored[u])
			}
			u++
		}
	}
}

// TestQuietGateMatchesUncachedScan: with the quiet gate on, RunOne and
// RunBatch in batches of 2, 4 and every synthesized checker answer each
// checker as Codebase.Run, which gates nothing, does, and store the
// engine's own result for every function, as store.Encode writes it —
// with the footprint memo empty, again on a fresh store over the same
// snapshot with the memo warm, and under engine bounds small enough to
// truncate.
func TestQuietGateMatchesUncachedScan(t *testing.T) {
	_, pool := batchEquivSetup(t)
	var cks []checker.Checker
	for _, spec := range pool {
		ck, err := ckdsl.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		cks = append(cks, ck)
	}
	tiny := Options{Engine: engine.Options{MaxSteps: 50, MaxPaths: 4}}
	ref := quietCodebase(t)
	var want, wantTiny []engineAnswer
	for _, ck := range cks {
		want = append(want, answerOf(ref, ck, Options{}))
		wantTiny = append(wantTiny, answerOf(ref, ck, tiny))
	}
	rounds := []struct {
		name string
		opts Options
		want []engineAnswer
	}{
		{"memo empty", Options{}, want},
		{"memo warm", Options{}, want},
		{"tiny bounds", tiny, wantTiny},
	}
	for _, size := range []int{1, 2, 4, len(cks)} {
		cb := quietCodebase(t)
		for _, round := range rounds {
			inc := NewIncremental(cb, store.NewMemory(0))
			var results []*Result
			for lo := 0; lo < len(cks); lo += size {
				batch := cks[lo:min(lo+size, len(cks))]
				if size == 1 {
					results = append(results, inc.RunOne(batch[0], round.opts))
				} else {
					results = append(results, inc.RunBatch(batch, nil, round.opts, 0)...)
				}
			}
			quiet := 0
			for k, ck := range cks {
				checkAnswer(t, fmt.Sprintf("size %d, %s", size, round.name), cb, inc.st, ck, results[k], round.want[k], round.opts)
				quiet += results[k].QuietResults
			}
			if quiet == 0 {
				t.Fatalf("size %d, %s: no miss was answered quietly", size, round.name)
			}
		}
	}
}

// TestVerdictMemoConcurrentReaders: a file version's footprints carry
// the checkers' memoized dataflow verdicts (minic.Footprint.Verdict),
// which whichever worker first needs one fills. Four goroutines ask
// every synthesized checker about every function of one snapshot, from
// cold memos and in different orders, and every answer must equal
// QuietOn on a footprint of the reader's own. Then, with every verdict
// memoized, asking again allocates nothing.
func TestVerdictMemoConcurrentReaders(t *testing.T) {
	_, pool := batchEquivSetup(t)
	var cks []*ckdsl.Compiled
	for _, spec := range pool {
		ck, err := ckdsl.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		cks = append(cks, ck)
	}
	cb := quietCodebase(t)
	snap := cb.snap.Load()
	type unit struct{ file, fn int }
	var units []unit
	var want [][]bool
	quiet := 0
	for i, f := range snap.files {
		for j, fn := range f.Funcs {
			fp := new(minic.Footprint)
			fp.Reset(fn)
			var row []bool
			for _, ck := range cks {
				q := ck.QuietOn(fp)
				row = append(row, q)
				if q {
					quiet++
				}
			}
			units, want = append(units, unit{i, j}), append(want, row)
		}
	}
	if quiet == 0 || quiet == len(units)*len(cks) {
		t.Fatalf("%d of %d pairs quiet: the test compares too little", quiet, len(units)*len(cks))
	}
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range units {
				u := (n*(g+1) + g) % len(units) // a different order per reader
				fp := snap.memo[units[u].file].footprint(snap.files[units[u].file], units[u].fn)
				for k, ck := range cks {
					if got := ck.QuietOn(fp); got != want[u][k] {
						errs <- fmt.Errorf("reader %d: %s on unit %d: QuietOn %v, want %v", g, ck.Name(), u, got, want[u][k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, u := range units {
			fp := snap.memo[u.file].footprint(snap.files[u.file], u.fn)
			for _, ck := range cks {
				ck.QuietOn(fp)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("memoized verdicts: %v allocations per sweep, want 0", allocs)
	}
}

// verdict is a checker.Quieter with a fixed verdict that counts the
// callbacks it runs and reports every memory access.
type verdict struct {
	name  string
	quiet bool
	ran   *int
}

func (v verdict) Name() string                     { return "test." + v.name }
func (verdict) BugType() string                    { return "None" }
func (v verdict) Fingerprint() string              { return fmt.Sprintf("verdict:%s:%v", v.name, v.quiet) }
func (v verdict) QuietOn(fp *minic.Footprint) bool { return v.quiet }
func (v verdict) CheckLocation(ac *checker.Access, c *checker.Context) {
	*v.ran++
	c.Report(v, "seen", ac.Pointee)
}

// TestQuietGateDropsQuietCheckers: the scheduler never runs a checker on
// a function it is quiet on. A batch answers the quiet checker quietly
// and the others as they answer alone, and a multi-checker Run answers
// as Codebase.Run of the loud ones does.
func TestQuietGateDropsQuietCheckers(t *testing.T) {
	cb, err := NewCodebase(&kernel.Corpus{Files: []*kernel.SourceFile{{
		Path: "drivers/qg/probe.c",
		Src:  "int probe(struct dev *d)\n{\n\treturn d->len;\n}\n",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	ranQuiet, ranLoud, ranOther := 0, 0, 0
	quiet := verdict{"quiet", true, &ranQuiet}
	loud := verdict{"loud", false, &ranLoud}
	other := verdict{"other", false, &ranOther}
	got := NewIncremental(cb, nil).RunBatch([]checker.Checker{loud, quiet, other}, nil, Options{}, 0)
	if ranQuiet != 0 || ranLoud == 0 || ranOther == 0 {
		t.Fatalf("the quiet checker ran %d callbacks, the loud ones %d and %d", ranQuiet, ranLoud, ranOther)
	}
	for i, want := range []*Result{cb.RunOne(loud, Options{}), cb.Run(nil, Options{}), cb.RunOne(other, Options{})} {
		if g, w := resultBytes(t, got[i]), resultBytes(t, want); g != w {
			t.Errorf("entry %d: %s, want %s", i, g, w)
		}
		if quietly := i == 1; (got[i].QuietResults == 1) != quietly {
			t.Errorf("entry %d: %d quiet results", i, got[i].QuietResults)
		}
	}
	ranQuiet = 0
	res := NewIncremental(cb, nil).Run([]checker.Checker{quiet, loud, other}, Options{})
	if g, w := resultBytes(t, res), resultBytes(t, cb.Run([]checker.Checker{loud, other}, Options{})); ranQuiet != 0 || g != w {
		t.Fatalf("multi-checker Run: the quiet checker ran %d callbacks; %s, want %s", ranQuiet, g, w)
	}
	if res.CacheMisses != 3 || res.QuietResults != 1 {
		t.Fatalf("multi-checker Run: %d misses, %d quiet, want one per checker and one quiet", res.CacheMisses, res.QuietResults)
	}
}

// liar reports at every dereference yet claims to be quiet on every
// function: it breaks checker.Quieter's contract, so it shows where the
// claim is believed.
type liar struct{}

func (liar) Name() string                     { return "test.liar" }
func (liar) BugType() string                  { return "None" }
func (liar) Fingerprint() string              { return "liar" }
func (liar) QuietOn(fp *minic.Footprint) bool { return true }
func (l liar) CheckLocation(ac *checker.Access, c *checker.Context) {
	if !ac.Direct {
		c.Report(l, "deref", ac.Pointee)
	}
}

// TestQuietGateIsTheSchedulersAlone: only the scheduler believes a
// checker.Quieter. Codebase.Run and the engine explore the liar and
// report what it reports; Incremental answers every function quietly.
func TestQuietGateIsTheSchedulersAlone(t *testing.T) {
	cb := quietCodebase(t)
	ref := cb.RunOne(liar{}, Options{})
	if len(ref.Reports) == 0 {
		t.Fatal("Codebase.Run believed the liar: no reports")
	}
	engineReports := 0
	for _, f := range cb.Files() {
		for _, fn := range f.Funcs {
			engineReports += len(engine.AnalyzeFunc(f, fn, engine.Options{Checkers: []checker.Checker{liar{}}}).Reports)
		}
	}
	if engineReports < len(ref.Reports) {
		t.Fatalf("engine.AnalyzeFunc reported the liar %d times, Codebase.Run %d", engineReports, len(ref.Reports))
	}
	res := NewIncremental(cb, nil).RunOne(liar{}, Options{})
	if len(res.Reports) != 0 || res.QuietResults != res.FuncsScanned || res.CacheMisses != res.FuncsScanned {
		t.Fatalf("the scheduler explored the liar: %d reports, %d of %d functions quiet (%d misses)",
			len(res.Reports), res.QuietResults, res.FuncsScanned, res.CacheMisses)
	}
}
