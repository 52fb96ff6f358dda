package engine

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/minic"
	"knighter/internal/sym"
)

func mustDSL(t *testing.T, src string) checker.Checker {
	t.Helper()
	ck, err := ckdsl.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	return ck
}

// render is a result's full content — reports with traces, Paths, Steps,
// flags, runtime errors — for exact comparison.
func render(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// requireSolo analyzes fn once for all checkers and once per checker
// and requires every result of the call to be exactly the solo one: the
// passes of one call hand their pooled scratch to each other, so residue
// of one checker's pass would show in the next one's. It also requires
// AnalyzeFunc over all of them to be the solo results folded. It returns
// the solo results.
func requireSolo(t *testing.T, f *minic.File, fn *minic.FuncDecl, cks []checker.Checker, opts Options) []*Result {
	t.Helper()
	shared := AnalyzeFuncEach(f, fn, cks, opts)
	solo := make([]*Result, len(cks))
	for i, ck := range cks {
		o := opts
		o.Checkers = []checker.Checker{ck}
		solo[i] = AnalyzeFunc(f, fn, o)
		if got, want := render(t, shared[i]), render(t, solo[i]); got != want {
			t.Errorf("%s checker %d of %d differs from its solo analysis:\nshared %s\nsolo   %s", fn.Name, i, len(cks), got, want)
		}
	}
	o := opts
	o.Checkers = cks
	if got, want := render(t, AnalyzeFunc(f, fn, o)), render(t, Fold(solo)); got != want {
		t.Errorf("%s: AnalyzeFunc over %d checkers is not their solo results folded:\n got %s\nwant %s", fn.Name, len(cks), got, want)
	}
	return solo
}

// Two checkers whose facts fork the exploration differently. Both arms
// of `a & 1` keep the same core state, so at the join a checker that
// tracks nothing in either arm has seen the node and one that tracks the
// kfree() has not: the two complete different numbers of paths.
const forkSrc = `
int fork(struct dev *d, int a)
{
	char *p = kzalloc(8, 0);
	if (a & 1)
		use(d);
	else
		kfree(p);
	note(d);
	return p->len;
}
`

const (
	npdDSL = `checker npd {
  bugtype "Null-Pointer-Dereference"
  track aliases
  source { call "kzalloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}`
	uafDSL = `checker uaf {
  bugtype "Use-After-Free"
  track aliases
  source { call "kfree" frees arg 0 }
  sink { deref freed }
}`
)

func TestForkingRidersEqualSolo(t *testing.T) {
	f := parse(t, forkSrc)
	npd, uaf := mustDSL(t, npdDSL), mustDSL(t, uafDSL)
	for _, cks := range [][]checker.Checker{
		{npd, uaf}, // npd's pass merges at the join; uaf's, on the scratch it leaves, must still take both paths
		{uaf, npd}, // uaf's pass takes both paths; npd's, on the scratch it leaves, must still merge
	} {
		solo := requireSolo(t, f, f.Funcs[0], cks, Options{})
		if solo[0].Paths == solo[1].Paths {
			t.Fatalf("the checkers do not fork: both complete %d paths alone", solo[0].Paths)
		}
	}
	// The report the forked-off path carries must be there.
	res := AnalyzeFuncEach(f, f.Funcs[0], []checker.Checker{npd, uaf}, Options{})
	if len(res[1].Reports) != 1 || res[1].Reports[0].BugType != "Use-After-Free" {
		t.Errorf("uaf reports = %v, want the use after free on the kfree() arm", res[1].Reports)
	}
}

// budgetSrc's first arm is a ladder of branches whose arms keep the same
// core state, so a checker that tracks no kfree() merges at every join
// and one that does forks at each: 2^8 paths. Exploration takes the true
// arm of `b` first; the null dereference is on the false arm.
const budgetSrc = `
int budget(char *p0, char *p1, char *p2, char *p3, char *p4, char *p5, char *p6, char *p7, int a, int b)
{
	if (b) {
		if (a & 1) kfree(p0); else use(p0);
		if (a & 2) kfree(p1); else use(p1);
		if (a & 4) kfree(p2); else use(p2);
		if (a & 8) kfree(p3); else use(p3);
		if (a & 16) kfree(p4); else use(p4);
		if (a & 32) kfree(p5); else use(p5);
		if (a & 64) kfree(p6); else use(p6);
		if (a & 128) kfree(p7); else use(p7);
		return 0;
	}
	char *q = kzalloc(8, 0);
	return q[1];
}
`

// TestCheckersDoNotShareABudget: the checkers of one call each get the
// MaxPaths/MaxSteps budget whole. uaf's pass spends its budget on the
// ladder; npd's, alone with the same bounds, crosses it and reports the
// dereference past it, and so it must in a call beside uaf.
func TestCheckersDoNotShareABudget(t *testing.T) {
	f := parse(t, budgetSrc)
	npd, uaf := mustDSL(t, npdDSL), mustDSL(t, uafDSL)
	opts := Options{MaxSteps: 200, MaxPaths: 16}
	for _, cks := range [][]checker.Checker{{uaf, npd}, {npd, uaf}} {
		solo := requireSolo(t, f, f.Funcs[0], cks, opts)
		s := map[checker.Checker]*Result{cks[0]: solo[0], cks[1]: solo[1]}
		if !s[uaf].Truncated || s[npd].Truncated || len(s[npd].Reports) != 1 {
			t.Fatalf("uaf truncated %v, npd truncated %v with reports %v: want uaf alone cut by the bounds and npd's dereference found",
				s[uaf].Truncated, s[npd].Truncated, s[npd].Reports)
		}
	}
}

// Candidates of one refinement round share a checker name and so a fact
// domain prefix: each checker must see only its own facts.
func TestSameNameRidersKeepSeparateFacts(t *testing.T) {
	f := parse(t, `
int probe(struct dev *d)
{
	struct priv *p = kzalloc(8, 0);
	struct priv *q = kmalloc(8, 0);
	p->a = 1;
	q->b = 2;
	return 0;
}
`)
	rev := func(callee string) checker.Checker {
		return mustDSL(t, strings.Replace(npdDSL, `"kzalloc"`, `"`+callee+`"`, 1))
	}
	solo := requireSolo(t, f, f.Funcs[0], []checker.Checker{rev("kzalloc"), rev("kmalloc"), rev("kzalloc")}, Options{})
	if len(solo[0].Reports) != 1 || len(solo[1].Reports) != 1 || solo[0].Reports[0].Pos == solo[1].Reports[0].Pos {
		t.Fatalf("the revisions should each report their own allocator's dereference: %v / %v", solo[0].Reports, solo[1].Reports)
	}
}

// crashOn panics in CheckPostCall of one callee.
type crashOn struct{ callee string }

func (crashOn) Name() string    { return "test.CrashOn" }
func (crashOn) BugType() string { return "None" }
func (c crashOn) CheckPostCall(ev *checker.CallEvent, _ *checker.Context) {
	if ev.Callee == c.callee {
		panic("checker exploded at " + ev.Callee)
	}
}

func TestCrashingRiderAloneCarriesTheError(t *testing.T) {
	f := parse(t, forkSrc)
	npd, uaf := mustDSL(t, npdDSL), mustDSL(t, uafDSL)
	cks := []checker.Checker{npd, crashOn{"note"}, uaf, crashOn{"kfree"}}
	solo := requireSolo(t, f, f.Funcs[0], cks, Options{})
	for i, want := range []int{0, 1, 0, 1} {
		if got := len(solo[i].RuntimeErrs); got != want {
			t.Errorf("checker %d: %d runtime errors, want %d", i, got, want)
		}
	}
	if len(solo[0].Reports) == 0 || len(solo[2].Reports) == 0 {
		t.Errorf("siblings of a crashing checker lost their reports: %v / %v", solo[0].Reports, solo[2].Reports)
	}
	if re := solo[3].RuntimeErrs[0]; re.Checker != "test.CrashOn" {
		t.Errorf("the crash is attributed to %q, want the pass's checker", re.Checker)
	}
}

// coreWriter is an impure checker: it rebinds the callee's first
// argument in the core state and conjures a symbol in the arena.
type coreWriter struct{}

func (coreWriter) Name() string    { return "test.CoreWriter" }
func (coreWriter) BugType() string { return "None" }
func (coreWriter) CheckPostCall(ev *checker.CallEvent, c *checker.Context) {
	if ev.Callee != "use" || ev.ArgRegions[0] == sym.NoRegion {
		return
	}
	s := c.Arena().NewSymbol("rewritten", ev.Pos)
	c.SetState(c.State().BindRegion(ev.ArgRegions[0], sym.MakeSym(s)).WithNullness(s, sym.IsNull))
}

// nullSeer reports every dereference of a pointer known to be null.
type nullSeer struct{}

func (nullSeer) Name() string    { return "test.NullSeer" }
func (nullSeer) BugType() string { return "Null-Pointer-Dereference" }
func (n nullSeer) CheckLocation(ac *checker.Access, c *checker.Context) {
	if !ac.Direct && c.State().NullnessOf(ac.PtrValue) == sym.IsNull {
		c.Report(n, "null dereference", ac.Pointee)
	}
}

// TestCoreWriterIsInvisibleToOtherCheckers: a checker that writes the
// core state writes only its own pass's. The nullSeer beside it, before
// or after it in one call, never sees d become null.
func TestCoreWriterIsInvisibleToOtherCheckers(t *testing.T) {
	f := parse(t, `
int impure(struct dev *d, int a)
{
	use(d);
	return d->len;
}
`)
	for _, cks := range [][]checker.Checker{{coreWriter{}, nullSeer{}}, {nullSeer{}, coreWriter{}}} {
		o := Options{Checkers: cks}
		if res := AnalyzeFunc(f, f.Funcs[0], o); len(res.Reports) != 0 {
			t.Fatalf("the null seer saw the core writer's binding: %v", res.Reports)
		}
		requireSolo(t, f, f.Funcs[0], cks, Options{})
	}
}

// Frames explored for another checker would shift the arena's
// allocation-ordered ids, and an opaque pointee's description prints one
// ("<sym9 pointee>"): a checker's report text must be its solo text.
func TestSharedReportTextEqualsSolo(t *testing.T) {
	f := parse(t, `
int text(struct dev *d, int a, int b)
{
	char *p = kzalloc(8, 0);
	if (b) {
		if (a & 1)
			use(d);
		else
			kfree(p);
		note(d->name);
		return d->stat->count;
	}
	release(d->buf);
	return d->buf->len;
}
`)
	uaf := mustDSL(t, uafDSL)
	rel := mustDSL(t, strings.NewReplacer("uaf", "rel", "kfree", "release").Replace(uafDSL))
	for _, cks := range [][]checker.Checker{{uaf, rel}, {rel, uaf}} {
		solo := requireSolo(t, f, f.Funcs[0], cks, Options{})
		for i, ck := range cks {
			if ck == rel && (len(solo[i].Reports) != 1 || !strings.Contains(solo[i].Reports[0].RegionAt, "<sym")) {
				t.Fatalf("want one report on an opaque pointee, got %v", solo[i].Reports)
			}
		}
	}
}

// checkerPool is checkers over the callee names progGen emits, chosen
// to fork: each tracks a different call, two share a name.
func checkerPool(t *testing.T) []checker.Checker {
	named := func(name, body string) checker.Checker {
		return mustDSL(t, "checker "+name+" {\n  bugtype \"Null-Pointer-Dereference\"\n  track aliases\n"+body+"}")
	}
	return []checker.Checker{
		named("rev", `  source { call "fn_p" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
`),
		named("rev", `  unwrap "unlikely"
  source { call "fn_q" yields nullable }
  source { call "fn_p" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
`),
		named("frees", `  source { call "fn_q" frees arg 0 }
  source { call "fn_b" frees arg 0 }
  sink { deref freed }
  sink { call "fn_q" arg 0 freed }
`),
		named("leak", `  source { call "fn_a" yields alloc }
  sink { end-of-function holding alloc }
`),
		named("taint", `  source { call "fn_n" yields taint }
  source { decl uninit }
  guard { boundcheck }
  guard { assign initializes }
  sink { index tainted }
  sink { use uninit }
`),
		mustFuzzChecker(t),
		crashOn{"fn_ret"},
	}
}

// forkProgram emits programs built to fork checkers: calls some checker
// tracks, under conditions the engine cannot decide (both arms keep the
// core state, so the arms differ only in some checkers' facts), between
// dereferences and null checks that turn the tracked facts into reports.
func forkProgram(r *rand.Rand) string {
	ptr := func() string { return []string{"p", "q", "dev"}[r.Intn(3)] }
	var item func(depth int) string
	item = func(depth int) string {
		switch k := r.Intn(10); {
		case k < 3 && depth > 0:
			return "if (a & " + []string{"1", "2", "4"}[r.Intn(3)] + ") {\n" + item(depth-1) + "} else {\n" + item(depth-1) + "}\n"
		case k < 5:
			return "fn_" + []string{"q", "b", "p", "ret"}[r.Intn(4)] + "(" + ptr() + ");\n"
		case k == 5:
			return ptr() + " = fn_" + []string{"p", "q", "a"}[r.Intn(3)] + "(n);\n"
		case k == 6:
			return "if (!" + ptr() + ")\n\treturn 1;\n"
		case k == 7:
			return "n = fn_n(b);\nbuf[n] = 0;\n"
		case k == 8 && depth > 0:
			return "while (b & 8) {\n" + item(depth-1) + "}\n"
		default:
			return "ret = " + ptr() + "->x;\n"
		}
	}
	body := ""
	for i, n := 0, 3+r.Intn(5); i < n; i++ {
		body += item(2)
	}
	return "struct s {\n\tint x;\n};\n\nint fork_target(struct s *dev, size_t n, int a, int b)\n{\n" +
		"\tchar buf[32];\n\tstruct s *p = fn_p(n);\n\tstruct s *q = fn_a(n);\n\tint ret;\n" + body + "\treturn ret;\n}\n"
}

// TestRidersEqualSoloOnRandomPrograms: over random programs, random
// checker lists and budgets small enough to truncate, every shared
// result is its solo result, and the folded call their fold. It also
// requires that a fair share of the programs fork the checkers, so the
// property is tested where it is at risk.
func TestRidersEqualSoloOnRandomPrograms(t *testing.T) {
	pool := checkerPool(t)
	forked := 0
	for seed := int64(0); seed < 600; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := forkProgram(r)
		if seed%3 == 0 {
			src = (&progGen{r: r}).program()
		}
		f, err := minic.ParseFile("fuzz.c", src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		cks := make([]checker.Checker, 2+r.Intn(4))
		for i := range cks {
			cks[i] = pool[r.Intn(len(pool))]
		}
		opts := Options{}
		if r.Intn(3) == 0 {
			opts = Options{MaxSteps: 20 + r.Intn(60), MaxPaths: 2 + r.Intn(6)}
		}
		solo := requireSolo(t, f, f.Funcs[0], cks, opts)
		for _, s := range solo[1:] {
			if (s.Steps != solo[0].Steps || s.Paths != solo[0].Paths) && len(s.RuntimeErrs) == 0 && len(solo[0].RuntimeErrs) == 0 {
				forked++
				break
			}
		}
		if t.Failed() {
			t.Fatalf("seed %d:\n%s", seed, src)
		}
	}
	if forked < 100 {
		t.Errorf("only %d of 600 programs forked their checkers", forked)
	}
}
