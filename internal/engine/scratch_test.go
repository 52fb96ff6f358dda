package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"knighter/internal/cfg"
	"knighter/internal/checker"
	"knighter/internal/kernel"
	"knighter/internal/minic"
	"knighter/internal/sym"
)

// siteReporter reports every memory access with what the pass's tables
// say about it: the region's kind and array length, whether the load is
// of a declared but unset local, and, as RegionAt, the region's path,
// which prints symbol ids. Residue a pooled scratch carried over from
// another pass shows in its report text.
type siteReporter struct{}

func (siteReporter) Name() string    { return "test.Sites" }
func (siteReporter) BugType() string { return "None" }
func (s siteReporter) CheckLocation(ac *checker.Access, c *checker.Context) {
	kind := -1
	if reg := c.Arena().Region(ac.Pointee); reg != nil {
		kind = int(reg.Kind)
	}
	c.Report(s, fmt.Sprintf("kind=%d uninit=%v len=%d", kind, ac.UninitLoad, ac.ArrayLen), ac.Pointee)
}

// canceler cancels its pass's context at every store it sees.
type canceler struct{ cancel context.CancelFunc }

func (canceler) Name() string                                     { return "test.Canceler" }
func (canceler) BugType() string                                  { return "None" }
func (c canceler) CheckBind(*checker.BindEvent, *checker.Context) { c.cancel() }

// disturbSource declares as locals the given names, which the corpus
// reads as globals, and an array. disturb_short calls boom(), where a
// crashing rider panics; disturb_long's one block is long enough for the
// evaluator's amortized cancellation check (every evalCheckInterval
// evaluations) to fire inside it. disturb_wide lowers to a larger graph
// than any corpus function — a loop, a ladder of branches to labels,
// more statements and conditions — so the pooled graph the next function
// lowers into is one a larger one left behind.
func disturbSource(names []string) string {
	var decls strings.Builder
	for _, n := range names {
		decls.WriteString("\tint " + n + ";\n")
	}
	decls.WriteString("\tchar buf[8];\n")
	var wide strings.Builder
	wide.WriteString("\tfor (int i = 0; i < a; i++)\n\t\tbuf[i] = d->len;\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&wide, "\tif (d->len == %d)\n\t\tgoto out%d;\n", i, i)
	}
	wide.WriteString("\treturn a;\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&wide, "out%d:\n\tbuf[%d] = a;\n\treturn %d;\n", i, i%8, i)
	}
	return "int disturb_short(struct dev *d, int a)\n{\n" + decls.String() +
		"\tboom(d);\n\tbuf[a] = d->len;\n\treturn 0;\n}\n\n" +
		"int disturb_long(struct dev *d, int a)\n{\n" + decls.String() +
		"\tint x = 0;\n" + strings.Repeat("\tx = x + a;\n", 100) + "\treturn x;\n}\n\n" +
		"int disturb_wide(struct dev *d, int a)\n{\n" + decls.String() + wide.String() + "}\n"
}

// freshPool empties scratchPool and graphPool the one way a sync.Pool
// can be emptied: a collection moves its contents to the victim cache,
// the next drops them. A call started after it builds its scratch and
// its graph from nothing, as in a new process.
func freshPool() {
	runtime.GC()
	runtime.GC()
}

// TestPooledScratchLeavesNoResidue analyzes every function of the
// scale-0.25 corpus in forward and in reverse order, concurrently (the
// two walks share the pools), each function after another call: one
// with a pass that ends abnormally — a checker panics, or the
// context is canceled mid-block (cancelAbort) in the call's last pass —
// or one that lowers a larger function into the pooled graph. Every
// function's results must be the ones it gets on a scratch and a graph
// built from nothing.
func TestPooledScratchLeavesNoResidue(t *testing.T) {
	corpus := kernel.Generate(kernel.Config{Seed: 1, Scale: 0.25})
	cks := []checker.Checker{mustDSL(t, npdDSL), mustDSL(t, uafDSL), siteReporter{}}
	parseFile := func(sf *kernel.SourceFile) *minic.File {
		f, err := minic.ParseFile(sf.Path, sf.Src)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	renderAll := func(results []*Result) []string {
		out := make([]string, len(results))
		for i, res := range results {
			out[i] = render(t, res)
		}
		return out
	}

	// The reference keeps only rendered results and one file's syntax
	// alive, so the collections that empty the pool stay cheap.
	var want [][]string
	globals := map[string]bool{}
	globalKind := fmt.Sprintf("kind=%d ", sym.GlobalRegion)
	for _, sf := range corpus.Files {
		f := parseFile(sf)
		for _, fn := range f.Funcs {
			freshPool()
			res := AnalyzeFuncEach(f, fn, cks, Options{})
			want = append(want, renderAll(res))
			for _, rep := range res[2].Reports {
				if strings.HasPrefix(rep.Message, globalKind) {
					globals[rep.RegionAt] = true
				}
			}
		}
	}
	var names []string
	for n := range globals {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("the corpus reads no globals: no disturbing pass can declare one as a local")
	}
	if len(names) > 64 {
		names = names[:64] // keep the disturbing passes small enough to be pooled
	}
	dist := parse(t, disturbSource(names))
	short, long, wide := dist.Funcs[0], dist.Funcs[1], dist.Funcs[2]
	freshPool()
	wantLong := render(t, AnalyzeFunc(dist, long, Options{Checkers: []checker.Checker{siteReporter{}}}))
	var wideGraph cfg.Graph
	if err := wideGraph.Lower(wide); err != nil {
		t.Fatal(err)
	}
	if len(wideGraph.Blocks) > maxPooledEntries {
		t.Fatalf("disturb_wide lowers to %d blocks: its graph would not be pooled", len(wideGraph.Blocks))
	}
	type unit struct {
		f  *minic.File
		fn *minic.FuncDecl
	}
	var units []unit
	for _, sf := range corpus.Files {
		f := parseFile(sf)
		for _, fn := range f.Funcs {
			units = append(units, unit{f, fn})
		}
	}
	var g cfg.Graph
	for _, u := range units {
		if g.Lower(u.fn) == nil && len(g.Blocks) >= len(wideGraph.Blocks) {
			t.Fatalf("%s lowers to %d blocks, disturb_wide to %d: wide is not the larger graph", u.fn.Name, len(g.Blocks), len(wideGraph.Blocks))
		}
	}

	// One walk per order; each leaves its results and the disturbing
	// passes' for the checks below.
	type walk struct {
		got                        [][]*Result
		crashed, canceled, widened []*Result
		midBlockCancels            int
	}
	walks := make([]walk, 2)
	var wg sync.WaitGroup
	for w := range walks {
		wg.Add(1)
		go func(w *walk, reverse bool) {
			defer wg.Done()
			w.got = make([][]*Result, len(units))
			for k := range units {
				switch k % 3 {
				case 0:
					w.widened = append(w.widened, AnalyzeFuncEach(dist, wide, cks, Options{})...)
				case 1:
					res := AnalyzeFuncEach(dist, short, []checker.Checker{siteReporter{}, crashOn{"boom"}}, Options{})
					w.crashed = append(w.crashed, res...)
				case 2:
					// The canceler's pass runs last, so the scratch its
					// cancelAbort leaves is the one the next function draws.
					ctx, cancel := context.WithCancel(context.Background())
					res := AnalyzeFuncEach(dist, long, []checker.Checker{siteReporter{}, canceler{cancel}}, Options{Ctx: ctx})
					cancel()
					w.canceled = append(w.canceled, res...)
				}
				i := k
				if reverse {
					i = len(units) - 1 - k
				}
				w.got[i] = AnalyzeFuncEach(units[i].f, units[i].fn, cks, Options{})
			}
		}(&walks[w], w == 1)
	}
	wg.Wait()

	midBlockCancels := 0
	for w, walk := range walks {
		for i, res := range walk.got {
			for r, got := range renderAll(res) {
				if got != want[i][r] {
					t.Fatalf("walk %d, %s checker %d after pooled passes:\n got %s\nwant %s", w, units[i].fn.Name, r, got, want[i][r])
				}
			}
		}
		for i := 0; i < len(walk.crashed); i += 2 {
			if len(walk.crashed[i].RuntimeErrs) != 0 || len(walk.crashed[i+1].RuntimeErrs) != 1 {
				t.Fatalf("crash pass: runtime errors %v / %v, want none / one", walk.crashed[i].RuntimeErrs, walk.crashed[i+1].RuntimeErrs)
			}
		}
		for i := 0; i < len(walk.canceled); i += 2 {
			// The sibling ran before the cancel: its solo result.
			site, cut := walk.canceled[i], walk.canceled[i+1]
			if got := render(t, site); got != wantLong {
				t.Fatalf("cancel call: the canceler's sibling came back\n got %s\nwant %s", got, wantLong)
			}
			if !cut.Canceled || cut.Steps != 1 || len(cut.RuntimeErrs) != 0 {
				t.Fatalf("cancel pass: Canceled=%v Steps=%d RuntimeErrs=%v, want a cancellation in the first block", cut.Canceled, cut.Steps, cut.RuntimeErrs)
			}
			walk.midBlockCancels++
		}
		for _, res := range walk.widened {
			if res.Truncated || res.Paths < 13 {
				t.Fatalf("wide pass: Truncated=%v Paths=%d, want every rung of the ladder explored", res.Truncated, res.Paths)
			}
		}
		midBlockCancels += walk.midBlockCancels
	}
	// disturb_long is one block, and the canceler cancels inside it, after
	// the frame-level check at its entry: a pass canceled there can only
	// have been cut by the evaluator's check (cancelAbort).
	if midBlockCancels == 0 {
		t.Error("no cancel pass was cut inside its block")
	}
}

// TestAnalyzeFuncReusesScratch pins what a call allocates once the pools
// hold a scratch and a graph. On a function with no locals AnalyzeFunc
// makes 24 allocations (Go 1.24); it made 27 while riders shared one
// exploration, 35 while each call built its CFG from heap blocks, and 61
// before passes shared scratch. The bound is the count plus the 10 the
// older bound left for map internals that differ across Go versions and
// for the race detector, which drops a quarter of pool puts (31–32 under
// -race, averaged over 1000 calls).
func TestAnalyzeFuncReusesScratch(t *testing.T) {
	f := parse(t, `
int probe(struct dev *d)
{
	return d->len;
}
`)
	opts := Options{Checkers: []checker.Checker{mustDSL(t, npdDSL)}}
	AnalyzeFunc(f, f.Funcs[0], opts) // the pools hold a scratch and a graph from here on
	if n := testing.AllocsPerRun(1000, func() { AnalyzeFunc(f, f.Funcs[0], opts) }); n > 34 {
		t.Errorf("AnalyzeFunc made %v allocations, want <= 34", n)
	}
}
