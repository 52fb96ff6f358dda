package refine

import (
	"testing"

	"knighter/internal/checker"
	"knighter/internal/kernel"
	"knighter/internal/llm"
	"knighter/internal/minic"
	"knighter/internal/scan"
	"knighter/internal/synth"
	"knighter/internal/triage"
	"knighter/internal/vcs"
)

// fixture builds a small shared corpus + loop (corpus scale keeps bug
// and bait counts constant, so dynamics match the full run).
type fixture struct {
	corpus *kernel.Corpus
	loop   *Loop
	pipe   *synth.Pipeline
	store  *vcs.Store
}

var shared *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if shared != nil {
		return shared
	}
	corpus := kernel.Generate(kernel.Config{Seed: 1, Scale: 0.2})
	cb, err := scan.NewCodebase(corpus)
	if err != nil {
		t.Fatal(err)
	}
	pipe := synth.NewPipeline(llm.NewOracle(llm.O3Mini), synth.Options{})
	loop := NewLoop(scan.NewIncremental(cb, nil), triage.NewAgent(corpus), pipe)
	shared = &fixture{corpus: corpus, loop: loop, pipe: pipe, store: kernel.BuildHandCommits(11)}
	return shared
}

func commitFor(t *testing.T, store *vcs.Store, class, flavor string) *vcs.Commit {
	t.Helper()
	for _, c := range store.All() {
		if c.Class == class && c.Flavor == flavor {
			return c
		}
	}
	t.Fatalf("no commit %s/%s", class, flavor)
	return nil
}

func TestDirectPlausible(t *testing.T) {
	fx := getFixture(t)
	c := commitFor(t, fx.store, kernel.ClassNPD, "devm_kzalloc")
	out := fx.pipe.GenChecker(c)
	if !out.Valid {
		t.Fatal("synthesis failed")
	}
	res := fx.loop.Run(c, out.Checker)
	if res.Disposition != DirectPlausible {
		t.Fatalf("disposition = %s (reports=%d)", res.Disposition, len(res.FinalReports))
	}
	if res.Steps != 0 {
		t.Errorf("direct checker took %d refinement steps", res.Steps)
	}
}

func TestRefinedPlausibleAddsUnwrap(t *testing.T) {
	fx := getFixture(t)
	c := commitFor(t, fx.store, kernel.ClassNPD, "kzalloc")
	out := fx.pipe.GenChecker(c)
	if !out.Valid {
		t.Fatal("synthesis failed")
	}
	if len(out.Spec.Unwrap) != 0 {
		t.Skip("first draft already carried unwrap; refinement axis not exercised at this seed")
	}
	res := fx.loop.Run(c, out.Checker)
	if res.Disposition != RefinedPlausible {
		t.Fatalf("disposition = %s", res.Disposition)
	}
	if len(res.Spec.Unwrap) == 0 {
		t.Errorf("refined spec did not gain unwrap:\n%s", res.Spec.String())
	}
	if res.Steps < 1 {
		t.Error("no refinement steps recorded")
	}
}

func TestFailWhenFPOutsideRepertoire(t *testing.T) {
	fx := getFixture(t)
	c := commitFor(t, fx.store, kernel.ClassNPD, "devm_ioremap")
	out := fx.pipe.GenChecker(c)
	if !out.Valid {
		t.Fatal("synthesis failed")
	}
	res := fx.loop.Run(c, out.Checker)
	if res.Disposition != Fail {
		t.Fatalf("disposition = %s, want fail (WARN_ON bait is unrefinable)", res.Disposition)
	}
	if res.Rounds < 2 {
		t.Errorf("fail after only %d round(s); the loop should retry", res.Rounds)
	}
}

func TestRefinedCheckerStaysValid(t *testing.T) {
	fx := getFixture(t)
	c := commitFor(t, fx.store, kernel.ClassUBI, "kfree")
	out := fx.pipe.GenChecker(c)
	if !out.Valid {
		t.Fatal("synthesis failed")
	}
	res := fx.loop.Run(c, out.Checker)
	if res.Disposition == Fail {
		t.Fatalf("UBI checker failed refinement (reports=%d)", len(res.FinalReports))
	}
	// Paper acceptance criterion 2: the final checker still
	// distinguishes buggy from patched.
	v := fx.pipe.Val.Validate(res.Checker, c)
	if !v.Valid {
		t.Errorf("final checker no longer validates: %+v", v)
	}
}

func TestSampleReportsDeterministicAndBounded(t *testing.T) {
	var reports []*checker.Report
	for i := 0; i < 40; i++ {
		reports = append(reports, &checker.Report{
			Checker: "x", File: "f.c",
			Pos: minic.Pos{Line: i + 1, Col: 1},
		})
	}
	a := sampleReports(reports, 5, "commit-a", 0)
	b := sampleReports(reports, 5, "commit-a", 0)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("sample sizes %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
	}
	c := sampleReports(reports, 5, "commit-b", 0)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different commits should sample differently")
	}
	if got := sampleReports(reports[:3], 5, "k", 0); len(got) != 3 {
		t.Errorf("small input sample = %d", len(got))
	}
}

// TestPaperConstants pins the refinement parameters to the paper's (§4).
func TestPaperConstants(t *testing.T) {
	got := [...]int{TPlausible, SampleSize, MaxFPInSample, MaxIters, ScanCap}
	if want := [...]int{20, 5, 1, 3, 100}; got != want {
		t.Errorf("TPlausible, SampleSize, MaxFPInSample, MaxIters, ScanCap = %v, want %v", got, want)
	}
}
