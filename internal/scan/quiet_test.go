package scan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/engine"
	"knighter/internal/kernel"
	"knighter/internal/minic"
	"knighter/internal/store"
	"knighter/internal/sym"
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
// uncached scan's reports, and the store.Encode bytes of the engine's
// own result for every function, in file and function order, as the
// store must hold them; and the reports and runtime errors of the
// uncached scan with the checker explored ungated, wherever it is quiet
// too.
type engineAnswer struct {
	scan    *Result
	stored  [][]byte
	ungated string
}

func answerOf(t *testing.T, cb *Codebase, ck checker.Checker, opts Options) engineAnswer {
	a := engineAnswer{scan: cb.RunOne(ck, opts)}
	eo := opts.engineOptions([]checker.Checker{ck})
	for _, f := range cb.Files() {
		for _, fn := range f.Funcs {
			a.stored = append(a.stored, store.Encode(engine.AnalyzeFunc(f, fn, eo)))
		}
	}
	explored := ck
	if c, ok := ck.(*ckdsl.Compiled); ok {
		explored = ungated{c}
	}
	a.ungated = reportBytes(t, cb.RunOne(explored, opts))
	return a
}

func reportBytes(t *testing.T, r *Result) string {
	t.Helper()
	data, err := json.Marshal(struct {
		Reports     []*checker.Report
		RuntimeErrs []engine.RuntimeErr
	}{r.Reports, r.RuntimeErrs})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// ungated runs a Compiled checker's callbacks but is no checker.Quieter:
// the engine explores with it even where it is quiet.
type ungated struct{ ck *ckdsl.Compiled }

func (u ungated) Name() string    { return u.ck.Name() }
func (u ungated) BugType() string { return u.ck.BugType() }

func (u ungated) CheckDecl(d *minic.DeclStmt, r sym.RegionID, c *checker.Context) {
	u.ck.CheckDecl(d, r, c)
}

func (u ungated) CheckPreCall(ev *checker.CallEvent, c *checker.Context) { u.ck.CheckPreCall(ev, c) }

func (u ungated) CheckPostCall(ev *checker.CallEvent, c *checker.Context) {
	u.ck.CheckPostCall(ev, c)
}

func (u ungated) CheckBind(ev *checker.BindEvent, c *checker.Context) { u.ck.CheckBind(ev, c) }

func (u ungated) CheckBranchCondition(cond minic.Expr, c *checker.Context) {
	u.ck.CheckBranchCondition(cond, c)
}

func (u ungated) CheckLocation(ac *checker.Access, c *checker.Context) { u.ck.CheckLocation(ac, c) }

func (u ungated) CheckEndFunction(ev *checker.ReturnEvent, c *checker.Context) {
	u.ck.CheckEndFunction(ev, c)
}

// checkAnswer fails unless res, ck's entry of a pass, reports what want
// does, and what ck explored ungated does, answered no more than its
// misses quietly, and left want's results in st under ck's keys.
func checkAnswer(t *testing.T, what string, cb *Codebase, st store.Store, ck checker.Checker, res *Result, want engineAnswer, opts Options) {
	t.Helper()
	if got, want := resultBytes(t, res), resultBytes(t, want.scan); got != want {
		t.Fatalf("%s: %s differs from the uncached scan:\n got %s\nwant %s", what, ck.Name(), got, want)
	}
	if got := reportBytes(t, res); got != want.ungated {
		t.Fatalf("%s: %s differs from the uncached scan explored ungated:\n got %s\nwant %s", what, ck.Name(), got, want.ungated)
	}
	if res.QuietResults > res.CacheMisses {
		t.Fatalf("%s: %s answered %d of %d misses quietly", what, ck.Name(), res.QuietResults, res.CacheMisses)
	}
	fp := checkersFingerprint([]checker.Checker{ck})
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
// checker as Codebase.Run does, and report what it does with the checker
// explored ungated, and store the engine's own result for every
// function, as store.Encode writes it — with the footprint memo empty,
// again on a fresh store over the same snapshot with the memo warm, and
// under engine bounds small enough to truncate.
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
		want = append(want, answerOf(t, ref, ck, Options{}))
		wantTiny = append(wantTiny, answerOf(t, ref, ck, tiny))
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
				checkAnswer(t, fmt.Sprintf("size %d, %s", size, round.name), cb, inc.Store(), ck, results[k], round.want[k], round.opts)
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
	snap := cb.Snapshot()
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
