package checker

import (
	"strings"
	"testing"

	"knighter/internal/minic"
	"knighter/internal/sym"
)

type namedChecker struct{ name, bug string }

func (n namedChecker) Name() string    { return n.name }
func (n namedChecker) BugType() string { return n.bug }

func TestReportKeyAndString(t *testing.T) {
	r := &Report{
		Checker: "knighter.x", BugType: "Null-Pointer-Dereference",
		Message: "boom", File: "a/b.c", Func: "probe",
		Pos: minic.Pos{File: "a/b.c", Line: 10, Col: 3},
	}
	if r.Key() != "knighter.x|a/b.c|10:3" {
		t.Errorf("key = %q", r.Key())
	}
	s := r.String()
	for _, want := range []string{"a/b.c:10:3", "knighter.x", "Null-Pointer-Dereference", "boom", "probe"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestValueKey(t *testing.T) {
	if k, ok := ValueKey(sym.MakeSym(7)); !ok || k != "s7" {
		t.Errorf("symbol key = %q %v", k, ok)
	}
	if k, ok := ValueKey(sym.MakeLoc(4)); !ok || k != "r4" {
		t.Errorf("loc key = %q %v", k, ok)
	}
	if _, ok := ValueKey(sym.MakeInt(0)); ok {
		t.Error("concrete ints must not get keys")
	}
	if _, ok := ValueKey(sym.Unknown); ok {
		t.Error("unknown must not get a key")
	}
	// Aliases (same symbol) share a key; distinct symbols do not.
	k1, _ := ValueKey(sym.MakeSym(3))
	k2, _ := ValueKey(sym.MakeSym(3))
	k3, _ := ValueKey(sym.MakeSym(4))
	if k1 != k2 || k1 == k3 {
		t.Errorf("alias keying broken: %q %q %q", k1, k2, k3)
	}
}

func TestContextStateAndReporting(t *testing.T) {
	arena := sym.NewArena()
	pos := minic.Pos{File: "f.c", Line: 5, Col: 2}
	r := arena.VarRegion("p", pos)
	var got []*Report
	ctx := NewContext(arena, sym.NewState(), map[minic.Expr]sym.Value{},
		[]TraceStep{{Pos: pos, Note: "entered"}},
		"probe", "f.c", pos, map[string]minic.Type{"p": {Base: "int", Stars: 1}},
		func(rep *Report) { got = append(got, rep) })

	// State replacement is visible.
	st := ctx.State().SetFact("D", "k", 1)
	ctx.SetState(st)
	if v, ok := ctx.State().Fact("D", "k"); !ok || v != 1 {
		t.Error("SetState not applied")
	}
	ctx.SetState(nil) // nil must be ignored
	if _, ok := ctx.State().Fact("D", "k"); !ok {
		t.Error("nil SetState clobbered the state")
	}

	if tp, ok := ctx.DeclType("p"); !ok || tp.Stars != 1 {
		t.Errorf("DeclType = %+v %v", tp, ok)
	}
	if ctx.Describe(r) != "p" {
		t.Errorf("Describe = %q", ctx.Describe(r))
	}

	ck := namedChecker{"knighter.t", "Misuse"}
	ctx.Report(ck, "msg", r)
	if len(got) != 1 {
		t.Fatalf("reports = %d", len(got))
	}
	rep := got[0]
	if rep.Checker != "knighter.t" || rep.BugType != "Misuse" || rep.Func != "probe" ||
		rep.RegionAt != "p" || len(rep.Trace) != 1 {
		t.Errorf("report = %+v", rep)
	}
	// Trace must be copied, not aliased.
	rep.Trace[0].Note = "mutated"
	ctx.Report(ck, "msg2", sym.NoRegion)
	if got[1].Trace[0].Note == "mutated" {
		t.Error("trace slices aliased between reports")
	}
}

func TestCallEventAccessors(t *testing.T) {
	call := &minic.CallExpr{Fun: "f", Args: []minic.Expr{&minic.Ident{Name: "a"}}}
	ev := &CallEvent{Callee: "f", Expr: call, Args: []sym.Value{sym.MakeInt(1)}}
	if ev.ArgExpr(0) == nil || ev.ArgExpr(3) != nil {
		t.Error("ArgExpr bounds wrong")
	}
}

func TestValueOfUsesUnparen(t *testing.T) {
	arena := sym.NewArena()
	inner := &minic.Ident{Name: "x"}
	wrapped := &minic.ParenExpr{X: inner}
	vals := map[minic.Expr]sym.Value{inner: sym.MakeInt(9)}
	ctx := NewContext(arena, sym.NewState(), vals, nil, "f", "f.c",
		minic.Pos{}, nil, func(*Report) {})
	if got := ctx.ValueOf(wrapped); !got.IsConcreteInt() || got.Int != 9 {
		t.Errorf("ValueOf(paren) = %v", got)
	}
}
