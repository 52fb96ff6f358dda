package triage

import (
	"strings"
	"testing"

	"knighter/internal/checker"
	"knighter/internal/kernel"
	"knighter/internal/minic"
)

func corpusForTest() *kernel.Corpus {
	return kernel.Generate(kernel.Config{Seed: 1, Scale: 0.1})
}

func reportAt(file, fn, bugType string, line int) *checker.Report {
	return &checker.Report{
		Checker: "knighter.test", BugType: bugType,
		Message: "test report", File: file, Func: fn,
		Pos: minic.Pos{File: file, Line: line, Col: 1},
		Trace: []checker.TraceStep{
			{Pos: minic.Pos{Line: line - 1}, Note: "assuming 'x' is true"},
		},
	}
}

func TestTruePositivesAlwaysLabeledBug(t *testing.T) {
	c := corpusForTest()
	a := NewAgent(c)
	for _, bug := range c.Bugs {
		r := reportAt(bug.File, bug.Func, kernel.BugTypeName(bug.Class), 10)
		for run := 0; run < 5; run++ {
			if v := a.Classify(r, run); !v.Bug {
				t.Fatalf("TP labeled not-a-bug (bug %s, run %d)", bug.ID, run)
			}
		}
	}
}

func TestClassMismatchIsNotTruePositive(t *testing.T) {
	c := corpusForTest()
	a := NewAgent(c)
	bug := c.Bugs[0]
	wrongType := "Concurrency"
	if kernel.BugTypeName(bug.Class) == wrongType {
		wrongType = "Memory-Leak"
	}
	r := reportAt(bug.File, bug.Func, wrongType, 10)
	if a.IsTruePositive(r) {
		t.Error("class-mismatched report counted as TP")
	}
}

func TestFalseReportLabelRateNearCalibration(t *testing.T) {
	c := corpusForTest()
	a := NewAgent(c)
	bugLabels := 0
	const n = 600
	for i := 0; i < n; i++ {
		r := reportAt("not/a/real/file.c", "no_such_fn", "Null-Pointer-Dereference", i+1)
		if a.Classify(r, 0).Bug {
			bugLabels++
		}
	}
	rate := float64(bugLabels) / n
	if rate < 0.22 || rate > 0.42 {
		t.Errorf("FP bug-label rate = %.2f, want ≈ %.2f", rate, FPBugRate)
	}
}

func TestVerdictsAreReportCorrelated(t *testing.T) {
	// The same false report should get mostly-consistent verdicts across
	// runs (the §5.4.1 self-consistency finding), i.e. per-report flip
	// rates are bimodal rather than iid.
	c := corpusForTest()
	a := NewAgent(c)
	consistent := 0
	const reports = 200
	for i := 0; i < reports; i++ {
		r := reportAt("fake.c", "fn", "Misuse", i+1)
		first := a.Classify(r, 0).Bug
		same := 0
		for run := 1; run <= 4; run++ {
			if a.Classify(r, run).Bug == first {
				same++
			}
		}
		if same == 4 {
			consistent++
		}
	}
	if consistent < reports/2 {
		t.Errorf("only %d/%d reports fully consistent across runs; verdicts look iid", consistent, reports)
	}
}

func TestMajorityVoteMonotoneInThreshold(t *testing.T) {
	c := corpusForTest()
	a := NewAgent(c)
	for i := 0; i < 100; i++ {
		r := reportAt("fake.c", "fn", "Misuse", i+1)
		v3 := a.MajorityVote(r, 5, 3).Bug
		v4 := a.MajorityVote(r, 5, 4).Bug
		if v4 && !v3 {
			t.Fatal("t=4 bug but t=3 not-a-bug: majority voting not monotone")
		}
	}
}

func TestDistillAndRender(t *testing.T) {
	r := reportAt("drivers/spi/x.c", "probe_fn", "Null-Pointer-Dereference", 42)
	r.RegionAt = "p->count"
	d := Distill(r)
	if d.File != "drivers/spi/x.c" || d.Line != 42 || d.Func != "probe_fn" {
		t.Errorf("distilled = %+v", d)
	}
	text := d.Render()
	for _, want := range []string{"drivers/spi/x.c:42", "probe_fn()", "Null-Pointer-Dereference", "p->count", "assuming"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
}

func TestDistillTruncatesLongTraces(t *testing.T) {
	r := reportAt("f.c", "fn", "Misuse", 1)
	r.Trace = nil
	for i := 0; i < 30; i++ {
		r.Trace = append(r.Trace, checker.TraceStep{Pos: minic.Pos{Line: i}, Note: "step"})
	}
	d := Distill(r)
	if len(d.Trace) > 8 {
		t.Errorf("trace not distilled: %d steps", len(d.Trace))
	}
}

func TestUsageAccounted(t *testing.T) {
	c := corpusForTest()
	a := NewAgent(c)
	r := reportAt("f.c", "fn", "Misuse", 1)
	a.Classify(r, 0)
	if a.Usage.Calls != 1 || a.Usage.InputTokens == 0 {
		t.Errorf("usage = %+v", a.Usage)
	}
}
