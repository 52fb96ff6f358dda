package scan

import (
	"fmt"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/engine"
	"knighter/internal/kernel"
	"knighter/internal/llm"
	"knighter/internal/store"
	"knighter/internal/synth"
)

// foldEntries is one answer for a batch's entries: each file's reports
// and runtime errors from every entry (FileCuts), folded by engine.Fold.
func foldEntries(entries []*Result) *Result {
	out := &Result{FilesScanned: entries[0].FilesScanned, FuncsScanned: entries[0].FuncsScanned}
	at := make([]FileCut, len(entries)) // each entry's cursor
	for f := range entries[0].FileCuts {
		rs := make([]*engine.Result, len(entries))
		for i, e := range entries {
			cut := e.FileCuts[f]
			rs[i] = &engine.Result{
				Reports:     e.Reports[at[i].Reports : at[i].Reports+cut.Reports],
				RuntimeErrs: e.RuntimeErrs[at[i].RuntimeErrs : at[i].RuntimeErrs+cut.RuntimeErrs],
			}
			at[i].Reports += cut.Reports
			at[i].RuntimeErrs += cut.RuntimeErrs
		}
		file := engine.Fold(rs)
		out.Reports = append(out.Reports, file.Reports...)
		out.RuntimeErrs = append(out.RuntimeErrs, file.RuntimeErrs...)
	}
	return out
}

// TestMultiCheckerRunFoldsPerCheckerScans: a scan with several checkers is one
// rider per checker, folded. Over every valid synthesized checker at
// seeds 1 and 2, Codebase.Run, a cold Incremental.Run, a warm one and
// the folded entries of a RunBatch report byte-identically; the cold Run
// misses once per (checker, function) pair, and a Run after the batch,
// on the batch's store, hits every pair the batch stored.
func TestMultiCheckerRunFoldsPerCheckerScans(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cb, err := NewCodebase(kernel.Generate(kernel.Config{Seed: seed, Scale: 0.25}))
			if err != nil {
				t.Fatal(err)
			}
			pipe := synth.NewPipeline(llm.NewOracle(llm.O3Mini), synth.Options{})
			var cks []checker.Checker
			for _, c := range kernel.BuildHandCommits(seed + 10).All() {
				if out := pipe.GenChecker(c); out.Valid {
					ck, err := ckdsl.Compile(out.Spec)
					if err != nil {
						t.Fatal(err)
					}
					cks = append(cks, ck)
				}
			}
			if len(cks) < 12 {
				t.Fatalf("%d valid checkers, want at least 12", len(cks))
			}
			pairs := len(cks) * cb.NumFuncs()
			want := resultBytes(t, cb.Run(cks, Options{}))
			check := func(what string, res *Result) {
				t.Helper()
				if got := resultBytes(t, res); got != want {
					t.Fatalf("%s differs from Codebase.Run:\n got %.300s\nwant %.300s", what, got, want)
				}
			}

			inc := NewIncremental(cb, store.NewMemory(0))
			cold := inc.Run(cks, Options{})
			check("cold Incremental.Run", cold)
			if cold.CacheMisses != pairs || cold.CacheHits != 0 {
				t.Fatalf("cold Run: %d hits, %d misses, want a miss per each of %d pairs", cold.CacheHits, cold.CacheMisses, pairs)
			}
			warm := inc.Run(cks, Options{})
			check("warm Incremental.Run", warm)
			if warm.CacheHits != pairs {
				t.Fatalf("warm Run: %d hits, want %d", warm.CacheHits, pairs)
			}

			batchInc := NewIncremental(cb, store.NewMemory(0))
			check("folded RunBatch", foldEntries(batchInc.RunBatch(cks, nil, Options{}, 0)))
			if res := batchInc.Run(cks, Options{}); res.CacheHits != pairs {
				t.Fatalf("Run after RunBatch: %d hits, want all %d pairs the batch stored", res.CacheHits, pairs)
			}
		})
	}
}
