package engine

import (
	"fmt"
	"strings"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/minic"
	"knighter/internal/sym"
)

func parse(t *testing.T, src string) *minic.File {
	t.Helper()
	f, err := minic.ParseFile("test.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

// recorder logs engine events for introspection tests.
type recorder struct {
	calls     []string
	locations []string
	binds     []string
	branches  []string
	ends      int
	decls     []string
}

func (r *recorder) Name() string    { return "test.Recorder" }
func (r *recorder) BugType() string { return "None" }

func (r *recorder) CheckPostCall(ev *checker.CallEvent, c *checker.Context) {
	r.calls = append(r.calls, ev.Callee)
}

func (r *recorder) CheckLocation(ac *checker.Access, c *checker.Context) {
	kind := "load"
	if !ac.IsLoad {
		kind = "store"
	}
	r.locations = append(r.locations, fmt.Sprintf("%s:%s", kind, c.Describe(ac.Pointee)))
}

func (r *recorder) CheckBind(ev *checker.BindEvent, c *checker.Context) {
	r.binds = append(r.binds, c.Describe(ev.Region))
}

func (r *recorder) CheckBranchCondition(cond minic.Expr, c *checker.Context) {
	r.branches = append(r.branches, minic.FormatExpr(cond))
}

func (r *recorder) CheckEndFunction(ev *checker.ReturnEvent, c *checker.Context) {
	r.ends++
}

func (r *recorder) CheckDecl(d *minic.DeclStmt, region sym.RegionID, c *checker.Context) {
	r.decls = append(r.decls, d.Name)
}

func TestEventsFire(t *testing.T) {
	f := parse(t, `
int f(struct dev *d)
{
	int x = probe(d);
	if (x)
		d->state = 1;
	return x;
}
`)
	rec := &recorder{}
	res := AnalyzeFile(f, Options{Checkers: []checker.Checker{rec}})
	if len(res.RuntimeErrs) != 0 {
		t.Fatalf("runtime errors: %v", res.RuntimeErrs)
	}
	if len(rec.calls) == 0 || rec.calls[0] != "probe" {
		t.Errorf("calls = %v", rec.calls)
	}
	if len(rec.branches) == 0 {
		t.Error("no branch conditions observed")
	}
	if rec.ends < 2 {
		t.Errorf("ends = %d, want >= 2 (two paths)", rec.ends)
	}
	foundStore := false
	for _, l := range rec.locations {
		if strings.HasPrefix(l, "store:") && strings.Contains(l, "state") {
			foundStore = true
		}
	}
	if !foundStore {
		t.Errorf("no store to d->state observed: %v", rec.locations)
	}
	if len(rec.decls) != 1 || rec.decls[0] != "x" {
		t.Errorf("decls = %v", rec.decls)
	}
}

// assertChecker inspects state at calls to special probe functions.
type assertChecker struct {
	t         *testing.T
	reachable map[string]int
	onProbe   func(name string, ev *checker.CallEvent, c *checker.Context)
}

func (a *assertChecker) Name() string    { return "test.Assert" }
func (a *assertChecker) BugType() string { return "None" }

func (a *assertChecker) CheckPostCall(ev *checker.CallEvent, c *checker.Context) {
	if strings.HasPrefix(ev.Callee, "__probe") {
		a.reachable[ev.Callee]++
		if a.onProbe != nil {
			a.onProbe(ev.Callee, ev, c)
		}
	}
}

func TestInfeasiblePathPruned(t *testing.T) {
	f := parse(t, `
int f(int x)
{
	if (x == 0) {
		if (x != 0)
			__probe_dead();
		__probe_live();
	}
	return 0;
}
`)
	a := &assertChecker{t: t, reachable: map[string]int{}}
	AnalyzeFile(f, Options{Checkers: []checker.Checker{a}})
	if a.reachable["__probe_dead"] != 0 {
		t.Error("contradictory path was explored")
	}
	if a.reachable["__probe_live"] == 0 {
		t.Error("feasible path was not explored")
	}
}

func TestNullnessConstraintOnBranch(t *testing.T) {
	f := parse(t, `
int f(void)
{
	struct x *p = alloc_thing();
	if (!p)
		return -1;
	__probe_nonnull(p);
	return 0;
}
`)
	a := &assertChecker{t: t, reachable: map[string]int{}}
	a.onProbe = func(name string, ev *checker.CallEvent, c *checker.Context) {
		if name != "__probe_nonnull" {
			return
		}
		if got := c.State().NullnessOf(ev.Args[0]); got != sym.NotNull {
			t.Errorf("nullness at probe = %v, want non-null", got)
		}
	}
	AnalyzeFile(f, Options{Checkers: []checker.Checker{a}})
	if a.reachable["__probe_nonnull"] != 1 {
		t.Errorf("probe reached %d times, want 1", a.reachable["__probe_nonnull"])
	}
}

func TestRangeConstraintOnBranch(t *testing.T) {
	f := parse(t, `
int f(size_t n)
{
	if (n > 63)
		return -1;
	__probe_small(n);
	return 0;
}
`)
	a := &assertChecker{t: t, reachable: map[string]int{}}
	a.onProbe = func(name string, ev *checker.CallEvent, c *checker.Context) {
		r := c.State().RangeOf(ev.Args[0])
		if r.CanExceed(63) {
			t.Errorf("range at probe = %v, want <= 63", r)
		}
		if r.CanBeNegative() {
			t.Errorf("size_t param should be non-negative, got %v", r)
		}
	}
	AnalyzeFile(f, Options{Checkers: []checker.Checker{a}})
	if a.reachable["__probe_small"] == 0 {
		t.Error("probe not reached")
	}
}

func TestSizeofFolding(t *testing.T) {
	f := parse(t, `
struct hdr {
	int a;
	char name[16];
};

int f(size_t n)
{
	char mybuf[64];
	if (n > sizeof(mybuf) - 1)
		return -1;
	__probe_bounded(n);
	return 0;
}
`)
	a := &assertChecker{t: t, reachable: map[string]int{}}
	a.onProbe = func(name string, ev *checker.CallEvent, c *checker.Context) {
		r := c.State().RangeOf(ev.Args[0])
		if r.Max != 63 {
			t.Errorf("range max = %v, want 63", r)
		}
	}
	AnalyzeFile(f, Options{Checkers: []checker.Checker{a}})
	if a.reachable["__probe_bounded"] == 0 {
		t.Error("probe not reached")
	}
}

func TestUnlikelyWrapperTransparentToEngine(t *testing.T) {
	f := parse(t, `
int f(void)
{
	struct x *p = alloc_thing();
	if (unlikely(!p))
		return -1;
	__probe_ok(p);
	return 0;
}
`)
	a := &assertChecker{t: t, reachable: map[string]int{}}
	a.onProbe = func(name string, ev *checker.CallEvent, c *checker.Context) {
		if got := c.State().NullnessOf(ev.Args[0]); got != sym.NotNull {
			t.Errorf("nullness = %v, want non-null (engine must see through unlikely)", got)
		}
	}
	AnalyzeFile(f, Options{Checkers: []checker.Checker{a}})
	if a.reachable["__probe_ok"] != 1 {
		t.Errorf("probe reached %d times", a.reachable["__probe_ok"])
	}
}

func TestLoopBounding(t *testing.T) {
	f := parse(t, `
int f(int n)
{
	int s = 0;
	while (n > 0) {
		s += n;
		n--;
	}
	return s;
}
`)
	res := AnalyzeFile(f, Options{MaxBlockVisits: 2})
	if res.Steps >= 20000 {
		t.Errorf("loop did not bound: %d steps", res.Steps)
	}
	if res.Paths == 0 {
		t.Error("no paths completed")
	}
}

func TestMinBuiltinConstrainsRange(t *testing.T) {
	f := parse(t, `
int f(size_t nbytes)
{
	char mybuf[64];
	size_t bsize;
	bsize = min(nbytes, sizeof(mybuf) - 1);
	__probe_min(bsize);
	return 0;
}
`)
	a := &assertChecker{t: t, reachable: map[string]int{}}
	a.onProbe = func(name string, ev *checker.CallEvent, c *checker.Context) {
		r := c.State().RangeOf(ev.Args[0])
		if r.CanExceed(63) {
			t.Errorf("min() result range = %v, want <= 63", r)
		}
	}
	AnalyzeFile(f, Options{Checkers: []checker.Checker{a}})
	if a.reachable["__probe_min"] == 0 {
		t.Error("probe not reached")
	}
}

func TestGotoErrorPathStateFlow(t *testing.T) {
	f := parse(t, `
int f(void)
{
	struct x *p = alloc_thing();
	int ret = 0;
	if (!p)
		goto err;
	__probe_nonnull_goto(p);
	return 0;
err:
	__probe_err(p);
	return -1;
}
`)
	a := &assertChecker{t: t, reachable: map[string]int{}}
	a.onProbe = func(name string, ev *checker.CallEvent, c *checker.Context) {
		nl := c.State().NullnessOf(ev.Args[0])
		switch name {
		case "__probe_nonnull_goto":
			if nl != sym.NotNull {
				t.Errorf("fall-through path: nullness = %v", nl)
			}
		case "__probe_err":
			if nl != sym.IsNull {
				t.Errorf("error path: nullness = %v, want null", nl)
			}
		}
	}
	AnalyzeFile(f, Options{Checkers: []checker.Checker{a}})
	if a.reachable["__probe_err"] == 0 || a.reachable["__probe_nonnull_goto"] == 0 {
		t.Errorf("paths missing: %v", a.reachable)
	}
}

type panicChecker struct{}

func (panicChecker) Name() string    { return "test.Panic" }
func (panicChecker) BugType() string { return "None" }
func (panicChecker) CheckPostCall(ev *checker.CallEvent, c *checker.Context) {
	panic("checker exploded")
}

func TestRuntimeErrorRecovered(t *testing.T) {
	f := parse(t, "int f(void)\n{\n\treturn do_thing();\n}\n")
	res := AnalyzeFile(f, Options{Checkers: []checker.Checker{panicChecker{}}})
	if len(res.RuntimeErrs) != 1 {
		t.Fatalf("runtime errors = %d, want 1", len(res.RuntimeErrs))
	}
	re := res.RuntimeErrs[0]
	if re.Checker != "test.Panic" || !strings.Contains(re.Panic, "exploded") {
		t.Errorf("runtime error = %+v", re)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
int f(struct dev *d, int n)
{
	struct buf *b = devm_kzalloc(d, n, 0);
	if (n > 10) {
		b->len = n;
		return 1;
	}
	for (int i = 0; i < n; i++)
		b->data[i] = i;
	return 0;
}
`
	run := func() string {
		f := parse(t, src)
		rec := &recorder{}
		AnalyzeFile(f, Options{Checkers: []checker.Checker{rec}})
		return strings.Join(rec.locations, ",") + "|" + strings.Join(rec.calls, ",")
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("non-deterministic run %d:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// --- a hand-written NPD checker mirroring paper Figure 2c ---

type npdChecker struct {
	allocFn  string
	unwrap   []string
	reported []*checker.Report
}

const npdMap = "PossibleNullPtrMap"

func (n *npdChecker) Name() string    { return "test.NPDDevmKzalloc" }
func (n *npdChecker) BugType() string { return "Null-Pointer-Dereference" }

func (n *npdChecker) CheckPostCall(ev *checker.CallEvent, c *checker.Context) {
	if ev.Callee != n.allocFn {
		return
	}
	if key, ok := checker.ValueKey(ev.Ret); ok {
		c.SetState(c.State().SetFact(npdMap, key, false)) // false = unchecked
	}
}

func (n *npdChecker) CheckBranchCondition(cond minic.Expr, c *checker.Context) {
	e := minic.UnwrapCalls(cond, n.unwrap...)
	var target minic.Expr
	switch x := e.(type) {
	case *minic.UnaryExpr: // if (!ptr)
		if x.Op == minic.Bang {
			target = x.X
		}
	case *minic.BinaryExpr: // if (ptr == NULL) / if (ptr != NULL)
		if x.Op == minic.EqEq || x.Op == minic.NotEq {
			if lv := c.ValueOf(x.Y); lv.IsNullConst() {
				target = x.X
			} else if lv := c.ValueOf(x.X); lv.IsNullConst() {
				target = x.Y
			}
		}
	case *minic.Ident: // if (ptr)
		target = x
	}
	if target == nil {
		return
	}
	key, ok := checker.ValueKey(c.ValueOf(target))
	if !ok {
		return
	}
	if _, tracked := c.State().Fact(npdMap, key); tracked {
		c.SetState(c.State().SetFact(npdMap, key, true)) // mark checked
	}
}

func (n *npdChecker) CheckLocation(ac *checker.Access, c *checker.Context) {
	key, ok := checker.ValueKey(ac.PtrValue)
	if !ok {
		return
	}
	if v, tracked := c.State().Fact(npdMap, key); tracked && v == false {
		c.Report(n, "pointer may be NULL when dereferenced", ac.Pointee)
		// Avoid cascading reports for the same pointer on this path.
		c.SetState(c.State().SetFact(npdMap, key, true))
	}
}

func TestNPDCheckerFindsBug(t *testing.T) {
	f := parse(t, `
int probe(struct dev *d)
{
	struct priv *p = devm_kzalloc(d, sizeof(struct priv), GFP_KERNEL);
	p->count = 0;
	return 0;
}
`)
	ck := &npdChecker{allocFn: "devm_kzalloc"}
	res := AnalyzeFile(f, Options{Checkers: []checker.Checker{ck}})
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1: %v", len(res.Reports), res.Reports)
	}
	r := res.Reports[0]
	if r.BugType != "Null-Pointer-Dereference" || !strings.Contains(r.RegionAt, "count") {
		t.Errorf("report = %+v", r)
	}
}

func TestNPDCheckerAcceptsPatchedCode(t *testing.T) {
	f := parse(t, `
int probe(struct dev *d)
{
	struct priv *p = devm_kzalloc(d, sizeof(struct priv), GFP_KERNEL);
	if (!p)
		return -ENOMEM;
	p->count = 0;
	return 0;
}
`)
	ck := &npdChecker{allocFn: "devm_kzalloc"}
	res := AnalyzeFile(f, Options{Checkers: []checker.Checker{ck}})
	if len(res.Reports) != 0 {
		t.Fatalf("reports = %d, want 0: %v", len(res.Reports), res.Reports)
	}
}

func TestNPDCheckerAliasing(t *testing.T) {
	// The alias q = p is checked; deref of p must be recognized as safe
	// because tracking keys on the value (symbol), not the variable.
	f := parse(t, `
int probe(struct dev *d)
{
	struct priv *p = devm_kzalloc(d, 8, GFP_KERNEL);
	struct priv *q = p;
	if (!q)
		return -ENOMEM;
	p->count = 0;
	return 0;
}
`)
	ck := &npdChecker{allocFn: "devm_kzalloc"}
	res := AnalyzeFile(f, Options{Checkers: []checker.Checker{ck}})
	if len(res.Reports) != 0 {
		t.Fatalf("alias-checked pointer misreported: %v", res.Reports)
	}
}

func TestNPDCheckerUnlikelyFalsePositiveAndRefinement(t *testing.T) {
	// A naive checker that does not unwrap unlikely() reports an FP
	// (paper Figure 7); the refined checker (unwrap configured) does not.
	src := `
int reg(struct dev *d)
{
	struct pmx *pmx = devm_kzalloc(d, 8, GFP_KERNEL);
	if (unlikely(!pmx))
		return -ENOMEM;
	pmx->pfc = d;
	return 0;
}
`
	naive := &npdChecker{allocFn: "devm_kzalloc"}
	res := AnalyzeFile(parse(t, src), Options{Checkers: []checker.Checker{naive}})
	if len(res.Reports) != 1 {
		t.Fatalf("naive checker reports = %d, want 1 (the FP)", len(res.Reports))
	}
	refined := &npdChecker{allocFn: "devm_kzalloc", unwrap: []string{"unlikely", "likely"}}
	res = AnalyzeFile(parse(t, src), Options{Checkers: []checker.Checker{refined}})
	if len(res.Reports) != 0 {
		t.Fatalf("refined checker reports = %d, want 0", len(res.Reports))
	}
}

func TestReportDeduplication(t *testing.T) {
	// The same deref site reached via two paths must report once.
	f := parse(t, `
int probe(struct dev *d, int flag)
{
	struct priv *p = devm_kzalloc(d, 8, GFP_KERNEL);
	if (flag)
		log_flag();
	p->count = 0;
	return 0;
}
`)
	ck := &npdChecker{allocFn: "devm_kzalloc"}
	res := AnalyzeFile(f, Options{Checkers: []checker.Checker{ck}})
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1 (deduplicated)", len(res.Reports))
	}
}

func TestReportHasTrace(t *testing.T) {
	f := parse(t, `
int probe(struct dev *d, int flag)
{
	struct priv *p = devm_kzalloc(d, 8, GFP_KERNEL);
	if (flag)
		p->count = 1;
	return 0;
}
`)
	ck := &npdChecker{allocFn: "devm_kzalloc"}
	res := AnalyzeFile(f, Options{Checkers: []checker.Checker{ck}})
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(res.Reports))
	}
	if len(res.Reports[0].Trace) == 0 {
		t.Error("report has no path trace")
	}
}

// TestMergeKeysOnlyWhatItMerges pins Merge's cost on a report-heavy
// file: folding a report-less function's result into a file result
// that already holds 64 reports allocates nothing, and one that brings
// reports still deduplicates against them.
func TestMergeKeysOnlyWhatItMerges(t *testing.T) {
	site := func(line int) *checker.Report {
		return &checker.Report{Checker: "c", File: "f.c", Pos: minic.Pos{Line: line, Col: 1}}
	}
	file := Result{}
	for line := 1; line <= 64; line++ {
		file.Reports = append(file.Reports, site(line))
	}
	quiet := &Result{Paths: 2, Steps: 9}
	if n := testing.AllocsPerRun(100, func() {
		r := file
		for i := 0; i < 16; i++ {
			r.Merge(quiet)
		}
	}); n != 0 {
		t.Fatalf("16 report-less merges into a 64-report file allocated %.0f times, want 0", n)
	}
	r := file
	r.Reports = r.Reports[:64:64]
	r.Merge(&Result{Reports: []*checker.Report{site(7), site(65), site(65)}})
	if len(r.Reports) != 65 || r.Reports[64].Pos.Line != 65 {
		t.Fatalf("merge kept %d reports, want the 64 plus line 65 once", len(r.Reports))
	}
}
