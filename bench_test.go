// Package knighter's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (§5), plus ablation benchmarks for the
// pipeline's design choices (README, "The synthesis loop"). Run with:
//
//	go test -bench=. -benchmem
//
// Table/figure benchmarks regenerate the corresponding result each
// iteration (on a reduced-scale corpus so the suite stays fast) and
// report domain-specific metrics alongside time/allocs.
package knighter

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knighter/internal/api"
	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/engine"
	"knighter/internal/eval"
	"knighter/internal/kernel"
	"knighter/internal/llm"
	"knighter/internal/minic"
	"knighter/internal/obs"
	"knighter/internal/scan"
	"knighter/internal/serve"
	"knighter/internal/shard"
	"knighter/internal/smatch"
	"knighter/internal/store"
	"knighter/internal/synth"
)

// benchScale shrinks the corpus for the benchmark suite; `knighter
// eval` runs the full-scale evaluation.
const benchScale = 0.25

var (
	benchOnce    sync.Once
	benchHarness *eval.Harness
	benchT1      *eval.Table1Result
	benchBugs    *eval.BugDetectionResult
)

func setupBench(b *testing.B) (*eval.Harness, *eval.Table1Result, *eval.BugDetectionResult) {
	b.Helper()
	benchOnce.Do(func() {
		h, err := eval.NewHarness(kernel.Config{Seed: 1, Scale: benchScale})
		if err != nil {
			panic(err)
		}
		benchHarness = h
		benchT1 = h.RunTable1()
		benchBugs = h.RunBugDetection(benchT1.Outcomes)
	})
	return benchHarness, benchT1, benchBugs
}

// BenchmarkTable1SynthesisPipeline regenerates Table 1: the multi-stage
// synthesis + refinement pipeline over the 61-commit benchmark.
func BenchmarkTable1SynthesisPipeline(b *testing.B) {
	h, _, _ := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 := h.RunTable1()
		b.ReportMetric(float64(t1.ValidCount), "valid-checkers")
		b.ReportMetric(t1.AvgAttempts, "avg-attempts")
	}
}

// BenchmarkTable2BugDetection regenerates Table 2: deploying every
// plausible checker across the kernel corpus and triaging the reports.
func BenchmarkTable2BugDetection(b *testing.B) {
	h, t1, _ := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bugs := h.RunBugDetection(t1.Outcomes)
		total, confirmed, _, _, cve := bugs.Table2()
		b.ReportMetric(float64(total), "bugs-found")
		b.ReportMetric(float64(confirmed), "confirmed")
		b.ReportMetric(float64(cve), "cves")
		b.ReportMetric(100*bugs.FPRate(), "fp-rate-pct")
	}
}

// BenchmarkTable3Ablation regenerates Table 3: six pipeline/model
// configurations over the 20-commit sample.
func BenchmarkTable3Ablation(b *testing.B) {
	h, _, _ := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		abl := h.RunAblation()
		b.ReportMetric(float64(abl.Rows[0].Valid), "default-valid")
		b.ReportMetric(float64(abl.Rows[1].Valid), "single-stage-valid")
		b.ReportMetric(float64(abl.Rows[len(abl.Rows)-1].Valid), "gemini-valid")
	}
}

// BenchmarkFig9aBugTypes regenerates the per-bug-type breakdown.
func BenchmarkFig9aBugTypes(b *testing.B) {
	_, _, bugs := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classes, hand, auto := bugs.Fig9a()
		if len(classes) == 0 {
			b.Fatal("no classes")
		}
		b.ReportMetric(float64(hand[classes[0]]+auto[classes[0]]), "top-class-bugs")
	}
}

// BenchmarkFig9bSubsystems regenerates the per-subsystem breakdown.
func BenchmarkFig9bSubsystems(b *testing.B) {
	_, _, bugs := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subs, counts := bugs.Fig9b()
		if len(subs) == 0 {
			b.Fatal("no subsystems")
		}
		b.ReportMetric(float64(counts[subs[0]]), "top-subsystem-bugs")
	}
}

// BenchmarkFig9cLifetimes regenerates the bug-lifetime histogram.
func BenchmarkFig9cLifetimes(b *testing.B) {
	h, _, bugs := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, mean := bugs.Fig9c(func(bg kernel.SeededBug) float64 {
			return h.Corpus.NowDate.Sub(bg.Introduced).Hours() / 24 / 365.25
		})
		b.ReportMetric(mean, "mean-lifetime-years")
	}
}

// BenchmarkFig9dPerCommit regenerates the per-commit detection counts.
func BenchmarkFig9dPerCommit(b *testing.B) {
	_, _, bugs := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := bugs.Fig9d()
		five := 0
		for _, n := range counts {
			if n >= 5 {
				five++
			}
		}
		b.ReportMetric(float64(five), "commits-with-5plus")
	}
}

// BenchmarkRQ3Orthogonality runs the Smatch-analog baseline and the
// overlap analysis.
func BenchmarkRQ3Orthogonality(b *testing.B) {
	h, _, bugs := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orth, err := h.RunOrthogonality(bugs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(orth.SmatchErrors+orth.SmatchWarnings), "baseline-reports")
		b.ReportMetric(float64(orth.Overlap), "overlap")
	}
}

// BenchmarkRQ4Triage runs the triage-agent study.
func BenchmarkRQ4Triage(b *testing.B) {
	h, t1, _ := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := h.RunTriageEval(t1.Outcomes)
		b.ReportMetric(float64(tr.FN), "false-negatives")
		b.ReportMetric(float64(tr.FP), "false-positives")
	}
}

// --- ablation benchmarks for the pipeline's design choices ---

const benchNPDSrc = `
static int probe_one(struct platform_device *pdev, char *name)
{
	struct priv *p;
	struct priv *q;
	p = devm_kzalloc(&pdev->dev, 64, GFP_KERNEL);
	q = p;
	if (unlikely(!q))
		return -ENOMEM;
	p->count = 1;
	platform_set_drvdata(pdev, p);
	return 0;
}
`

func mustChecker(b *testing.B, dsl string) *ckdsl.Compiled {
	b.Helper()
	ck, err := ckdsl.CompileSource(dsl)
	if err != nil {
		b.Fatal(err)
	}
	return ck
}

func mustFile(b *testing.B, src string) *minic.File {
	b.Helper()
	f, err := minic.ParseFile("bench.c", src)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkAblationAliasTracking compares value-based (semantic) and
// syntactic object tracking: precision differs (the syntactic variant
// false-positives on the alias check) and so does cost.
func BenchmarkAblationAliasTracking(b *testing.B) {
	base := `
checker bench_npd {
  bugtype "Null-Pointer-Dereference"
  %s
  unwrap "unlikely" "likely"
  source { call "devm_kzalloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}
`
	file := mustFile(b, benchNPDSrc)
	for _, mode := range []struct{ name, directive string }{
		{"ValueTracking", "track aliases"},
		{"Syntactic", "track regions"},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ck := mustChecker(b, strings.Replace(base, "%s", mode.directive, 1))
			reports := 0
			for i := 0; i < b.N; i++ {
				res := engine.AnalyzeFile(file, engine.Options{Checkers: []checker.Checker{ck}})
				reports = len(res.Reports)
			}
			b.ReportMetric(float64(reports), "reports")
		})
	}
}

// BenchmarkAblationUnwrap compares checkers with and without
// annotation-macro unwrapping on unlikely()-guarded code.
func BenchmarkAblationUnwrap(b *testing.B) {
	withUnwrap := `
checker bench_unwrap {
  bugtype "Null-Pointer-Dereference"
  track aliases
  unwrap "unlikely" "likely"
  source { call "devm_kzalloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}
`
	withoutUnwrap := strings.Replace(withUnwrap, "  unwrap \"unlikely\" \"likely\"\n", "", 1)
	file := mustFile(b, benchNPDSrc)
	for _, mode := range []struct{ name, dsl string }{
		{"WithUnwrap", withUnwrap},
		{"WithoutUnwrap", withoutUnwrap},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ck := mustChecker(b, mode.dsl)
			fps := 0
			for i := 0; i < b.N; i++ {
				res := engine.AnalyzeFile(file, engine.Options{Checkers: []checker.Checker{ck}})
				fps = len(res.Reports) // the code is correct: any report is an FP
			}
			b.ReportMetric(float64(fps), "false-positives")
		})
	}
}

// BenchmarkAblationPathBudget sweeps the engine's loop/path bounds: the
// analysis-time vs coverage trade-off.
func BenchmarkAblationPathBudget(b *testing.B) {
	h, _, _ := setupBench(b)
	ck := mustChecker(b, `
checker bench_budget {
  bugtype "Null-Pointer-Dereference"
  track aliases
  source { call "devm_kzalloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}
`)
	for _, budget := range []struct {
		name   string
		visits int
		paths  int
	}{
		{"Tight-1x64", 1, 64},
		{"Default-2x512", 2, 512},
		{"Wide-4x2048", 4, 2048},
	} {
		b.Run(budget.name, func(b *testing.B) {
			reports := 0
			for i := 0; i < b.N; i++ {
				res := h.Codebase.RunOne(ck, scan.Options{Engine: engine.Options{
					MaxBlockVisits: budget.visits, MaxPaths: budget.paths,
				}})
				reports = len(res.Reports)
			}
			b.ReportMetric(float64(reports), "reports")
		})
	}
}

// BenchmarkAblationValidationThreshold sweeps T_valid (paper §4 default
// 50): how permissive validation affects the number of valid checkers.
func BenchmarkAblationValidationThreshold(b *testing.B) {
	h, _, _ := setupBench(b)
	for _, tv := range []int{1, 50, 1000} {
		b.Run(benchName("TValid", tv), func(b *testing.B) {
			valid := 0
			for i := 0; i < b.N; i++ {
				pipe := synth.NewPipeline(llm.NewOracle(llm.O3Mini), synth.Options{TValid: tv})
				valid = 0
				for _, c := range h.Hand.All()[:20] {
					if pipe.GenChecker(c).Valid {
						valid++
					}
				}
			}
			b.ReportMetric(float64(valid), "valid-checkers")
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "-" + strings.TrimLeft(strings.Repeat("0", 4), "0") + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}

// --- substrate micro-benchmarks ---

// BenchmarkMiniCParse measures frontend throughput: one op parses every
// file of the benchmark-scale corpus, as NewCodebase does at boot.
func BenchmarkMiniCParse(b *testing.B) {
	corpus := kernel.Generate(kernel.Config{Seed: 1, Scale: benchScale})
	var size int64
	for _, f := range corpus.Files {
		size += int64(len(f.Src))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range corpus.Files {
			if _, err := minic.ParseFile(f.Path, f.Src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineFunction measures symbolic execution of one function
// with a live checker.
func BenchmarkEngineFunction(b *testing.B) {
	file := mustFile(b, benchNPDSrc)
	ck := mustChecker(b, `
checker bench_engine {
  bugtype "Null-Pointer-Dereference"
  track aliases
  unwrap "unlikely" "likely"
  source { call "devm_kzalloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}
`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine.AnalyzeFile(file, engine.Options{Checkers: []checker.Checker{ck}})
	}
}

// BenchmarkFullCorpusScan measures a whole-corpus scan with one checker
// (the refinement loop's unit of work).
func BenchmarkFullCorpusScan(b *testing.B) {
	h, _, _ := setupBench(b)
	ck := mustChecker(b, `
checker bench_scan {
  bugtype "Null-Pointer-Dereference"
  track aliases
  source { call "kzalloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}
`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Codebase.RunOne(ck, scan.Options{})
	}
}

const benchCacheDSL = `
checker bench_cache {
  bugtype "Null-Pointer-Dereference"
  track aliases
  source { call "kzalloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}
`

// BenchmarkScanColdCache measures an incremental full-corpus scan
// against an empty result store: every function is a miss, so this is
// the uncached analysis cost plus cache bookkeeping.
func BenchmarkScanColdCache(b *testing.B) {
	h, _, _ := setupBench(b)
	ck := mustChecker(b, benchCacheDSL)
	b.ResetTimer()
	var res *scan.Result
	for i := 0; i < b.N; i++ {
		inc := scan.NewIncremental(h.Codebase, store.NewMemory(0))
		res = inc.RunOne(ck, scan.Options{})
	}
	b.ReportMetric(float64(len(res.Reports)), "reports")
	b.ReportMetric(float64(res.CacheMisses), "cache-misses")
}

// BenchmarkScanWarmCache measures the same scan against a fully warmed
// store: no symbolic execution runs, only hashing, lookups, and the
// deterministic merge. The ratio to BenchmarkScanColdCache is the cache
// speedup the incremental scan service delivers on repeat scans (the
// refinement loop's and kserve's steady state).
func BenchmarkScanWarmCache(b *testing.B) {
	h, _, _ := setupBench(b)
	ck := mustChecker(b, benchCacheDSL)
	inc := scan.NewIncremental(h.Codebase, store.NewMemory(0))
	inc.RunOne(ck, scan.Options{}) // warm every entry
	b.ResetTimer()
	var res *scan.Result
	for i := 0; i < b.N; i++ {
		res = inc.RunOne(ck, scan.Options{})
	}
	if res.CacheMisses != 0 {
		b.Fatalf("warm scan missed %d times", res.CacheMisses)
	}
	b.ReportMetric(float64(res.CacheHits), "cache-hits")
}

// BenchmarkScanWarmInstrumented is BenchmarkScanWarmCache through the
// handler kserve serves: the replica serve.New builds over the same
// corpus with kserve's defaults — instrumented store, stage observer,
// per-request trace, HTTP metrics, access log, read gate, trace store —
// answering POST /scan. The
// delta to BenchmarkScanWarmCache is what the whole request path adds
// on the hot warm-scan path: observability plus checker compile and
// the JSON reply.
func BenchmarkScanWarmInstrumented(b *testing.B) {
	log.SetOutput(io.Discard) // one access-log line per request
	defer log.SetOutput(os.Stderr)
	srv, err := serve.New(serve.Config{Seed: 1, Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	body, err := json.Marshal(api.ScanRequest{Checker: benchCacheDSL})
	if err != nil {
		b.Fatal(err)
	}
	post := func() *api.ScanResponse {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/scan", bytes.NewReader(body)))
		var resp api.ScanResponse
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil || rec.Code != http.StatusOK {
			b.Fatalf("POST /scan = %d, decode: %v", rec.Code, err)
		}
		return &resp
	}
	post() // warm every entry
	b.ResetTimer()
	var resp *api.ScanResponse
	for i := 0; i < b.N; i++ {
		resp = post()
	}
	if resp.Cache.Misses != 0 {
		b.Fatalf("warm scan missed %d times", resp.Cache.Misses)
	}
	b.ReportMetric(float64(resp.Cache.Hits), "cache-hits")
}

// BenchmarkScanWarmConcurrent is BenchmarkScanWarmInstrumented with two
// callers, as warm_serve drives kserve: two goroutines post warm /scan
// requests through the real handler until b.N have been answered. A
// single caller cannot see what concurrent scans cost each other — the
// memory tier's lock, and the scheduler handing units to its workers.
// Scale 1 is the corpus warm_serve scans (1 558 functions).
func BenchmarkScanWarmConcurrent(b *testing.B) {
	for _, scale := range []float64{benchScale, 1} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) { benchScanWarmConcurrent(b, scale) })
	}
}

func benchScanWarmConcurrent(b *testing.B, scale float64) {
	b.ReportAllocs()
	log.SetOutput(io.Discard) // one access-log line per request
	defer log.SetOutput(os.Stderr)
	srv, err := serve.New(serve.Config{Seed: 1, Scale: scale})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	body, err := json.Marshal(api.ScanRequest{Checker: benchCacheDSL})
	if err != nil {
		b.Fatal(err)
	}
	post := func(wantMisses bool) error {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/scan", bytes.NewReader(body)))
		var resp api.ScanResponse
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil || rec.Code != http.StatusOK {
			return fmt.Errorf("POST /scan = %d, decode: %v", rec.Code, err)
		}
		if !wantMisses && resp.Cache.Misses != 0 {
			return fmt.Errorf("warm scan missed %d times", resp.Cache.Misses)
		}
		return nil
	}
	if err := post(true); err != nil { // the cold scan warms every entry
		b.Fatal(err)
	}
	b.ResetTimer()
	var claimed atomic.Int64
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for claimed.Add(1) <= int64(b.N) {
				if err := post(false); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
}

// BenchmarkScanWarmTraced is BenchmarkScanWarmCache with ONLY the
// distributed-tracing layer on: a fresh per-request trace (span tree +
// tail-sample bookkeeping) per iteration, offered to a trace store when
// it completes — no metrics registry, no instrumented tiers, isolating
// the tracing subsystem's own cost. The delta to BenchmarkScanWarmCache
// is the tracing overhead on the hot warm-scan path, budgeted at
// <= ~2%: child span ids derive from the root id and a counter (no
// rand syscall per span), spans aggregate per stage rather than per
// function, and the tail-sampling keep decision is one hash.
func BenchmarkScanWarmTraced(b *testing.B) {
	h, _, _ := setupBench(b)
	ck := mustChecker(b, benchCacheDSL)
	inc := scan.NewIncremental(h.Codebase, store.NewMemory(0))
	ts := obs.NewTraceStore(512, 0.05, 0)
	inc.RunOne(ck, scan.Options{}) // warm every entry
	b.ResetTimer()
	var res *scan.Result
	for i := 0; i < b.N; i++ {
		tr := obs.NewTraceFor("kserve", "", "")
		ctx := obs.WithTrace(context.Background(), tr)
		start := time.Now()
		res = inc.RunOne(ck, scan.Options{Context: ctx})
		elapsed := time.Since(start)
		tr.CloseRoot("scan", "", elapsed)
		ts.Add(tr, obs.TraceMeta{Route: "scan", Status: 200, Elapsed: elapsed})
	}
	if res.CacheMisses != 0 {
		b.Fatalf("warm scan missed %d times", res.CacheMisses)
	}
	b.ReportMetric(float64(res.CacheHits), "cache-hits")
}

// BenchmarkScanWarmRemote measures the fleet steady state: a fresh
// replica (empty memory tier) whose every loud lookup is answered by an
// in-process kcached on the store serve.NewCache builds, its segment
// log alone, and whose quiet misses its own gate answers. The gap to
// BenchmarkScanWarmCache is the network tier's round-trip cost; the gap
// to BenchmarkScanColdCache is what a second replica saves by joining a
// warm fleet instead of scanning cold.
func BenchmarkScanWarmRemote(b *testing.B) {
	h, _, _ := setupBench(b)
	ck := mustChecker(b, benchCacheDSL)
	disk, err := store.NewSegmentDisk(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	kcStore := store.NewStack(nil, store.Tier{Name: "disk", Store: disk}, nil)
	kc := httptest.NewServer(store.NewCacheServer(kcStore).Handler())
	defer kc.Close()
	newReplicaStore := func() store.Store {
		r, err := store.NewRemote(kc.URL, store.RemoteConfig{})
		if err != nil {
			b.Fatal(err)
		}
		return store.NewStack(nil, store.Tier{Name: "memory", Store: store.NewMemory(0)}, r)
	}
	// Replica A's cold scan warms the shared tier.
	scan.NewIncremental(h.Codebase, newReplicaStore()).RunOne(ck, scan.Options{})
	b.ResetTimer()
	var res *scan.Result
	for i := 0; i < b.N; i++ {
		// Each iteration is a brand-new replica: first scan, warm fleet.
		res = scan.NewIncremental(h.Codebase, newReplicaStore()).RunOne(ck, scan.Options{})
	}
	if res.CacheMisses != res.QuietResults {
		b.Fatalf("fleet-warm scan explored %d of its %d misses", res.CacheMisses-res.QuietResults, res.CacheMisses)
	}
	b.ReportMetric(float64(res.CacheHits), "remote-hits")
	b.ReportMetric(float64(res.QuietResults), "quiet")
}

// benchDiskEntries fills a disk tier with a fleet-realistic working set
// for the Get benchmarks and returns the keys.
func benchDiskEntries(b *testing.B, d *store.SegmentDisk) []store.Key {
	b.Helper()
	keys := make([]store.Key, 512)
	res := &engine.Result{Paths: 3, Steps: 40}
	for i := range keys {
		keys[i] = store.Key{
			FuncHash:  store.Hash("bench-fn", string(rune(i%64))),
			CheckerFP: store.Hash("bench-ck", string(rune(i/64))),
			EngineFP:  "eng",
		}
		d.Put(context.Background(), keys[i], res)
	}
	return keys
}

// BenchmarkDiskGetSegment measures a warm Get on the segment-packed
// disk store: one in-memory index probe plus one pread on an
// already-open segment file.
func BenchmarkDiskGetSegment(b *testing.B) {
	d, err := store.NewSegmentDisk(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	keys := benchDiskEntries(b, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Get(context.Background(), keys[i%len(keys)]); !ok {
			b.Fatal("warm get missed")
		}
	}
}

// BenchmarkSmatchBaseline measures the baseline analyzer's full-corpus
// run.
func BenchmarkSmatchBaseline(b *testing.B) {
	h, _, _ := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smatch.Run(h.Corpus); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckerValidation measures one differential validation (the
// inner loop of Algorithm 1's stage 4).
func BenchmarkCheckerValidation(b *testing.B) {
	h, _, _ := setupBench(b)
	c := h.Hand.ByClass(kernel.ClassNPD)[0]
	ck := mustChecker(b, `
checker bench_validate {
  bugtype "Null-Pointer-Dereference"
  track aliases
  source { call "devm_kzalloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}
`)
	val := synth.NewValidator(50)
	for i := 0; i < b.N; i++ {
		val.Validate(ck, c)
	}
}

// BenchmarkScanAfterPatch measures the mutable-corpus steady state: a
// warm store, one function patched per iteration, then a full re-scan.
// Only the patched function re-analyzes; everything else is a cache
// hit, so this should sit near BenchmarkScanWarmCache, not
// BenchmarkScanColdCache.
func BenchmarkScanAfterPatch(b *testing.B) {
	corpus := kernel.Generate(kernel.Config{Seed: 1, Scale: benchScale})
	cb, err := scan.NewCodebase(corpus)
	if err != nil {
		b.Fatal(err)
	}
	ck := mustChecker(b, benchCacheDSL)
	inc := scan.NewIncremental(cb, store.NewMemory(0))

	// Pick a file, canonicalize it, and prepare two variants of its last
	// function to alternate between (so every iteration really mutates).
	path := cb.Files()[0].Name
	if _, err := inc.ApplyChangeset([]scan.Change{{Path: path, Source: minic.FormatFile(cb.Files()[0])}}); err != nil {
		b.Fatal(err)
	}
	fn := cb.Files()[0].Funcs[len(cb.Files()[0].Funcs)-1]
	orig := minic.FormatFunc(fn)
	brace := strings.Index(orig, "{")
	alt := orig[:brace+1] + "\n\tint bench_probe;" + orig[brace+1:]
	inc.RunOne(ck, scan.Options{}) // warm every entry

	b.ResetTimer()
	var res *scan.Result
	for i := 0; i < b.N; i++ {
		src := alt
		if i%2 == 1 {
			src = orig
		}
		if _, err := inc.ApplyChangeset([]scan.Change{{Path: path, Func: fn.Name, Source: src}}); err != nil {
			b.Fatal(err)
		}
		res = inc.RunOne(ck, scan.Options{})
	}
	if res.CacheMisses != 1 {
		b.Fatalf("post-patch scan missed %d times, want 1", res.CacheMisses)
	}
	b.ReportMetric(float64(res.CacheHits), "cache-hits")
}

// changesetFixture prepares K canonicalized files with two alternating
// variants of each file's last function, so every benchmark iteration
// can apply a real K-file changeset.
type changesetFixture struct {
	inc  *scan.Incremental
	orig []scan.Change
	alt  []scan.Change
}

func newChangesetFixture(b *testing.B, k int) *changesetFixture {
	b.Helper()
	corpus := kernel.Generate(kernel.Config{Seed: 1, Scale: benchScale})
	cb, err := scan.NewCodebase(corpus)
	if err != nil {
		b.Fatal(err)
	}
	fx := &changesetFixture{inc: scan.NewIncremental(cb, store.NewMemory(0))}
	for i := 0; i < k; i++ {
		path := cb.Files()[i].Name
		if _, err := fx.inc.ApplyChangeset([]scan.Change{{Path: path, Source: minic.FormatFile(cb.Files()[i])}}); err != nil {
			b.Fatal(err)
		}
		fn := cb.Files()[i].Funcs[len(cb.Files()[i].Funcs)-1]
		orig := minic.FormatFunc(fn)
		brace := strings.Index(orig, "{")
		alt := orig[:brace+1] + "\n\tint bench_changeset;" + orig[brace+1:]
		fx.orig = append(fx.orig, scan.Change{Path: path, Func: fn.Name, Source: orig})
		fx.alt = append(fx.alt, scan.Change{Path: path, Func: fn.Name, Source: alt})
	}
	return fx
}

func (fx *changesetFixture) apply(b *testing.B, i int) *scan.Changeset {
	b.Helper()
	changes := fx.alt
	if i%2 == 1 {
		changes = fx.orig
	}
	cs, err := fx.inc.ApplyChangeset(changes)
	if err != nil {
		b.Fatal(err)
	}
	return cs
}

// BenchmarkChangesetApply measures the commit-apply path alone: a 4-file
// changeset staged, validated, swapped, and bulk-invalidated per
// iteration — the /changeset endpoint's cost with HTTP and scanning
// stripped away.
func BenchmarkChangesetApply(b *testing.B) {
	const k = 4
	fx := newChangesetFixture(b, k)
	ck := mustChecker(b, benchCacheDSL)
	fx.inc.RunOne(ck, scan.Options{}) // populate the store so invalidation has work
	b.ResetTimer()
	var cs *scan.Changeset
	for i := 0; i < b.N; i++ {
		cs = fx.apply(b, i)
	}
	b.ReportMetric(float64(cs.Changed), "changed-funcs")
	b.ReportMetric(float64(len(cs.StaleHashes)), "stale-hashes")
}

// BenchmarkScanAfterChangeset measures the commit-scale steady state: a
// warm store, one 4-file changeset per iteration, then a full re-scan.
// Misses stay confined to the four touched functions, so this should sit
// near BenchmarkScanWarmCache (plus four analyses), far from
// BenchmarkScanColdCache.
func BenchmarkScanAfterChangeset(b *testing.B) {
	const k = 4
	fx := newChangesetFixture(b, k)
	ck := mustChecker(b, benchCacheDSL)
	fx.inc.RunOne(ck, scan.Options{}) // warm every entry
	b.ResetTimer()
	var res *scan.Result
	for i := 0; i < b.N; i++ {
		fx.apply(b, i)
		res = fx.inc.RunOne(ck, scan.Options{})
	}
	if res.CacheMisses != k {
		b.Fatalf("post-changeset scan missed %d times, want %d", res.CacheMisses, k)
	}
	b.ReportMetric(float64(res.CacheHits), "cache-hits")
}

// BenchmarkScanDuringChangeset measures the MVCC acceptance criterion:
// warm scans with a changeset storm committing concurrently. Scans pin
// a snapshot at admission and never wait on the writer, so per-scan
// wall time should sit within ~10% of BenchmarkScanWarmCache (modulo
// the handful of misses each commit introduces) — not degrade to the
// drain-the-readers stalls of the old RWMutex design.
func BenchmarkScanDuringChangeset(b *testing.B) {
	const k = 4
	fx := newChangesetFixture(b, k)
	ck := mustChecker(b, benchCacheDSL)
	fx.inc.RunOne(ck, scan.Options{}) // warm every entry

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		changes := [2][]scan.Change{fx.alt, fx.orig}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := fx.inc.ApplyChangeset(changes[i%2]); err != nil {
				panic(err) // benchmark fixture changes are valid by construction
			}
		}
	}()

	b.ResetTimer()
	var res *scan.Result
	for i := 0; i < b.N; i++ {
		res = fx.inc.RunOne(ck, scan.Options{})
	}
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(res.CacheHits), "cache-hits")
	b.ReportMetric(float64(res.Generation), "generation")
}

// benchShardCodebase parses one full copy of the benchmark corpus — one
// fleet replica's memory image (sharding shares scan work, not memory).
func benchShardCodebase(b *testing.B) *scan.Codebase {
	b.Helper()
	cb, err := scan.NewCodebase(kernel.Generate(kernel.Config{Seed: 1, Scale: benchScale}))
	if err != nil {
		b.Fatal(err)
	}
	return cb
}

func benchFileIdx(b *testing.B, cb *scan.Codebase, paths []string) []int {
	b.Helper()
	idx := make([]int, len(paths))
	for i, p := range paths {
		if idx[i] = cb.FileIndex(p); idx[i] < 0 {
			b.Fatalf("unknown file %s", p)
		}
	}
	return idx
}

// BenchmarkScanColdSingleWorker is the single-host baseline for
// BenchmarkScanShardedFanout: a cold full-corpus scan with ONE analysis
// worker — the same per-host worker budget each shard gets, so the
// ratio between the two benchmarks isolates what the fan-out adds
// (a second host's worth of compute) rather than comparing different
// levels of local parallelism.
func BenchmarkScanColdSingleWorker(b *testing.B) {
	cb := benchShardCodebase(b)
	ck := mustChecker(b, benchCacheDSL)
	all := make([]int, len(cb.Files()))
	for i := range all {
		all[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := scan.NewIncremental(cb, store.NewMemory(0)).
			RunFiles(all, []checker.Checker{ck}, scan.Options{Workers: 1})
		if res.CacheHits != 0 {
			b.Fatal("cold scan hit the cache")
		}
	}
}

// BenchmarkScanShardedFanout measures the tentpole: a cold full-corpus
// scan scattered across TWO in-process shard owners (the coordinator's
// local partition plus one peer behind real HTTP) and merged. Each host
// runs one analysis worker, so against BenchmarkScanColdSingleWorker
// this is the horizontal-scaling claim: >= 1.5x faster with
// byte-identical output (asserted here before timing starts).
//
// The speedup needs GOMAXPROCS >= 2 — both "hosts" live in this
// process, so each needs its own core to scan concurrently, exactly as
// two real machines would. On a single-core runner the two benchmarks
// converge and the delta IS the scatter tax (HTTP + JSON + merge),
// which is worth watching in its own right; the byte-identity gate
// runs regardless.
func BenchmarkScanShardedFanout(b *testing.B) {
	cbA := benchShardCodebase(b) // coordinator replica
	cbB := benchShardCodebase(b) // peer shard owner
	ck := mustChecker(b, benchCacheDSL)
	cks := []checker.Checker{ck}
	paths := make([]string, len(cbA.Files()))
	for i, f := range cbA.Files() {
		paths[i] = f.Name
	}
	ring := shard.Ring{Count: 2}

	// Per-iteration cold stores, swapped in behind a mutex so the peer
	// handler (a different goroutine) reads the current one.
	var mu sync.Mutex
	var incA, incB *scan.Incremental
	swap := func() {
		mu.Lock()
		incA = scan.NewIncremental(cbA, store.NewMemory(0))
		incB = scan.NewIncremental(cbB, store.NewMemory(0))
		mu.Unlock()
	}
	cur := func() (*scan.Incremental, *scan.Incremental) {
		mu.Lock()
		defer mu.Unlock()
		return incA, incB
	}
	swap()

	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req api.ScanRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_, inc := cur()
		res := inc.RunFiles(benchFileIdx(b, cbB, req.Files), cks,
			scan.Options{Workers: 1, Context: r.Context()})
		json.NewEncoder(w).Encode(api.ScanResult("bench_cache", res, false, true))
	}))
	defer peer.Close()

	sc := shard.NewScatter(shard.Config{Ring: ring, Self: 0, Peers: []string{"", peer.URL}}, shard.Hooks{})
	job := shard.ScanJob{
		Req:   api.ScanRequest{Checker: benchCacheDSL},
		Name:  "bench_cache",
		Paths: paths,
		Local: func(ctx context.Context, files []string) ([]*api.ScanResponse, error) {
			inc, _ := cur()
			res := inc.RunFiles(benchFileIdx(b, cbA, files), cks,
				scan.Options{Workers: 1, Context: ctx})
			return []*api.ScanResponse{api.ScanResult("bench_cache", res, false, true)}, nil
		},
	}

	// Byte-identity gate: the merged scatter must equal the single-host
	// scan before its speed means anything.
	single := scan.NewIncremental(cbA, store.NewMemory(0)).
		RunFiles(benchFileIdx(b, cbA, paths), cks, scan.Options{Workers: 1})
	want := api.ScanResult("bench_cache", single, false, false)
	merged, info, err := sc.Scan(context.Background(), job)
	if err != nil {
		b.Fatal(err)
	}
	if info.Degraded != 0 {
		b.Fatalf("healthy fleet degraded %d partitions", info.Degraded)
	}
	wantJSON, _ := json.Marshal(want.Reports)
	gotJSON, _ := json.Marshal(merged.Reports)
	if string(wantJSON) != string(gotJSON) ||
		merged.FilesScanned != want.FilesScanned || merged.FuncsScanned != want.FuncsScanned {
		b.Fatalf("sharded scan diverged from single host:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		swap()
		if _, _, err := sc.Scan(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(merged.Reports)), "reports")
}

// synthRevisions returns n never-seen revisions of the valid checkers
// Table 1 synthesized, taken round-robin from the from-th one: what a
// refinement round sends, and what cold_sweep sends, through the ckdsl
// paths those checkers exercise. tag keeps revisions of different calls
// apart (a checker's name is part of its fingerprint).
func synthRevisions(b *testing.B, t1 *eval.Table1Result, tag string, from, n int) []checker.Checker {
	b.Helper()
	var specs []*ckdsl.Spec
	for _, so := range t1.Outcomes {
		if so.Synth.Valid {
			specs = append(specs, so.Synth.Spec)
		}
	}
	if len(specs) == 0 {
		b.Fatal("Table 1 synthesized no valid checker")
	}
	cks := make([]checker.Checker, n)
	for i := range cks {
		sp := *specs[(from+i)%len(specs)]
		sp.Name = fmt.Sprintf("%s_%s_%d", sp.Name, tag, i)
		cks[i] = mustChecker(b, sp.String())
	}
	return cks
}

// BenchmarkBatchScanCold measures a /batch of never-seen revisions of
// synthesized checkers — a refinement round's candidates — at batch sizes
// 2 and 4: every function misses under every revision. A function is
// lowered once and explored once per revision that can act on it; the
// others are answered quietly, unexplored, and quiet/op counts those
// answers; loud/op counts the misses explored, the pairs a checker can
// act on. Each revision's result is then one store put. Successive
// iterations walk the valid checkers, so ns/op averages over them.
func BenchmarkBatchScanCold(b *testing.B) {
	h, t1, _ := setupBench(b)
	for _, size := range []int{2, 4} {
		b.Run(fmt.Sprintf("revisions=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			quiet, loud := 0, 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cks := synthRevisions(b, t1, fmt.Sprint(i), i*size, size)
				inc := scan.NewIncremental(h.Codebase, store.NewMemory(0)) // fresh store: nothing is warm
				b.StartTimer()
				for _, res := range inc.RunBatch(cks, nil, scan.Options{}, 0) {
					if res.CacheHits != 0 {
						b.Fatalf("cold batch hit %d times", res.CacheHits)
					}
					quiet += res.QuietResults
					loud += res.CacheMisses - res.QuietResults
				}
			}
			b.ReportMetric(float64(quiet)/float64(b.N), "quiet/op")
			b.ReportMetric(float64(loud)/float64(b.N), "loud/op")
		})
	}
}

// BenchmarkQuietOn measures QuietOn in the paper's deployment shape:
// the valid checkers synthesized from seed 1's hand commits (39) against
// every function of the scale-1, seed-1 corpus, per op. fresh makes each
// function's footprint anew every op, so every op pays the footprint and
// the dataflow rules (internal/ckdsl/flow.go) in full; memoized keeps one
// footprint per function, as the scan scheduler keeps one per file
// version, warmed before the timer, so every verdict is a memo hit.
// loud/op counts the pairs QuietOn calls loud.
func BenchmarkQuietOn(b *testing.B) {
	var fns []*minic.FuncDecl
	for _, sf := range kernel.Generate(kernel.Config{Seed: 1, Scale: 1}).Files {
		fns = append(fns, mustFile(b, sf.Src).Funcs...)
	}
	cks := handCheckers(b)
	fps := make([]minic.Footprint, len(fns))
	sweep := func(fresh bool) (loud int) {
		for i, fn := range fns {
			if fresh {
				fps[i].Reset(fn)
			}
			for _, ck := range cks {
				if !ck.QuietOn(&fps[i]) {
					loud++
				}
			}
		}
		return loud
	}
	for _, mode := range []string{"fresh", "memoized"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			loud := sweep(true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loud = sweep(mode == "fresh")
			}
			b.ReportMetric(float64(loud), "loud/op")
		})
	}
}

// handCheckers compiles the valid checkers synthesized from the hand
// commits (39): the checkers the paper deploys over the whole kernel.
func handCheckers(b *testing.B) []*ckdsl.Compiled {
	b.Helper()
	var cks []*ckdsl.Compiled
	pipe := synth.NewPipeline(llm.NewOracle(llm.O3Mini), synth.Options{})
	for _, c := range kernel.BuildHandCommits(11).All() {
		if out := pipe.GenChecker(c); out.Valid {
			ck, err := ckdsl.Compile(out.Spec)
			if err != nil {
				b.Fatal(err)
			}
			cks = append(cks, ck)
		}
	}
	return cks
}

// BenchmarkDeployBatchCold is the paper's deployment shape as one cold
// batch: the valid checkers synthesized from the hand commits (39) over
// every function of the scale-1 corpus of seeds 1 and 2, from an empty
// store. explored/op counts the explorations the engine makes, one per
// (function, checker) pair the checker can act on; loud-funcs/op counts
// the functions at least one checker can act on, the explorations an
// engine that let a function's checkers share one would make.
func BenchmarkDeployBatchCold(b *testing.B) {
	cks := handCheckers(b)
	riders := make([]checker.Checker, len(cks))
	for i, ck := range cks {
		riders[i] = ck
	}
	for _, seed := range []int64{1, 2} {
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) {
			cb, err := scan.NewCodebase(kernel.Generate(kernel.Config{Seed: seed, Scale: 1}))
			if err != nil {
				b.Fatal(err)
			}
			loudFuncs := 0
			var fp minic.Footprint
			for _, f := range cb.Files() {
				for _, fn := range f.Funcs {
					fp.Reset(fn)
					for _, ck := range cks {
						if !ck.QuietOn(&fp) {
							loudFuncs++
							break
						}
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			explored := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				inc := scan.NewIncremental(cb, store.NewMemory(0)) // fresh store: nothing is warm
				b.StartTimer()
				for _, res := range inc.RunBatch(riders, nil, scan.Options{}, 0) {
					if res.CacheHits != 0 {
						b.Fatalf("cold batch hit %d times", res.CacheHits)
					}
					explored += res.CacheMisses - res.QuietResults
				}
			}
			b.ReportMetric(float64(explored)/float64(b.N), "explored/op")
			b.ReportMetric(float64(loudFuncs), "loud-funcs/op")
		})
	}
}

// BenchmarkBatchScanColdResident is a cold /batch of 2 against the tier
// a cold_sweep daemon ends up holding: ≈300k entries already resident,
// which every garbage-collection cycle the batch triggers has to mark.
// BenchmarkBatchScanCold starts from an empty store and cannot see that
// cost. The prefill re-stores one pass's results under new checker
// fingerprints, as the sweep's revisions do, and under a prefix of each
// real function hash, so that after every iteration, with the timer
// stopped, invalidating the real hashes drops exactly what the batch
// stored: the resident population is the prefill's for any b.N. It also
// reports the live heap the prefill added per entry (B/entry).
func BenchmarkBatchScanColdResident(b *testing.B) {
	h, t1, _ := setupBench(b)
	cb := h.Codebase
	mem := store.NewMemory(0)
	eo := engine.Options{Checkers: synthRevisions(b, t1, "prefill", 0, 1)}
	files := cb.Files()
	var hashes []string
	var results []*engine.Result
	for i, f := range files {
		for j, fn := range f.Funcs {
			hashes = append(hashes, cb.FuncHash(i, j))
			results = append(results, engine.AnalyzeFunc(f, fn, eo))
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for rev := 0; rev < 300_000/len(hashes); rev++ {
		fp := fmt.Sprintf("prefill-%d", rev)
		for u, fh := range hashes {
			mem.Put(context.Background(), store.Key{FuncHash: "p" + fh, CheckerFP: fp, EngineFP: "prefill"}, results[u])
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	resident := mem.Stats().Entries
	perEntry := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(resident)
	inc := scan.NewIncremental(cb, mem)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cks := synthRevisions(b, t1, fmt.Sprint(i), 2*i, 2)
		b.StartTimer()
		for _, res := range inc.RunBatch(cks, nil, scan.Options{}, 0) {
			if res.CacheHits != 0 {
				b.Fatalf("cold batch hit %d times", res.CacheHits)
			}
		}
		b.StopTimer()
		mem.InvalidateFuncs(hashes)
		b.StartTimer()
	}
	b.StopTimer()
	st := mem.Stats()
	if st.Evictions != 0 {
		b.Fatalf("resident tier evicted %d entries", st.Evictions)
	}
	if st.Entries != resident {
		b.Fatalf("%d entries resident after the batches, %d before", st.Entries, resident)
	}
	b.ReportMetric(float64(st.Entries), "entries")
	b.ReportMetric(perEntry, "B/entry")
}

// BenchmarkBatchScanWarm measures the kserve /batch steady state: four
// checker revisions scheduled over a fully warmed shared store.
func BenchmarkBatchScanWarm(b *testing.B) {
	h, _, _ := setupBench(b)
	var cks []checker.Checker
	for _, name := range []string{"rev_a", "rev_b", "rev_c", "rev_d"} {
		cks = append(cks, mustChecker(b, strings.ReplaceAll(benchCacheDSL, "bench_cache", name)))
	}
	inc := scan.NewIncremental(h.Codebase, store.NewMemory(0))
	inc.RunBatch(cks, nil, scan.Options{}, 0) // warm all four
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := inc.RunBatch(cks, nil, scan.Options{}, 0)
		for _, res := range results {
			if res.CacheMisses != 0 {
				b.Fatalf("warm batch missed %d times", res.CacheMisses)
			}
		}
	}
}
