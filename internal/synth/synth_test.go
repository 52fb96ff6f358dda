package synth

import (
	"testing"

	"knighter/internal/ckdsl"
	"knighter/internal/kernel"
	"knighter/internal/llm"
	"knighter/internal/vcs"
)

func findCommit(t *testing.T, store *vcs.Store, class, flavor string) *vcs.Commit {
	t.Helper()
	for _, c := range store.All() {
		if c.Class == class && c.Flavor == flavor {
			return c
		}
	}
	t.Fatalf("no commit %s/%s", class, flavor)
	return nil
}

const npdArchetype = `
checker t_npd {
  bugtype "Null-Pointer-Dereference"
  track aliases
  source { call "devm_kzalloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}
`

func TestValidatorAcceptsDiscriminatingChecker(t *testing.T) {
	store := kernel.BuildHandCommits(11)
	c := findCommit(t, store, kernel.ClassNPD, "devm_kzalloc")
	ck, err := ckdsl.CompileSource(npdArchetype)
	if err != nil {
		t.Fatal(err)
	}
	v := NewValidator(50).Validate(ck, c)
	if !v.Valid || v.NBuggy == 0 || v.NPatched != 0 {
		t.Fatalf("validation = %+v", v)
	}
}

func TestValidatorRejectsFlagBoth(t *testing.T) {
	store := kernel.BuildHandCommits(11)
	c := findCommit(t, store, kernel.ClassNPD, "devm_kzalloc")
	// No nullcheck guard: the patched version is flagged too.
	noGuard := `
checker t_bad {
  bugtype "Null-Pointer-Dereference"
  track aliases
  source { call "devm_kzalloc" yields nullable }
  sink { deref unchecked }
}
`
	ck, err := ckdsl.CompileSource(noGuard)
	if err != nil {
		t.Fatal(err)
	}
	v := NewValidator(50).Validate(ck, c)
	if v.Valid {
		t.Fatalf("guardless checker validated: %+v", v)
	}
	if v.NBuggy == 0 || v.NPatched == 0 {
		t.Fatalf("expected flag-both shape, got %+v", v)
	}
}

func TestValidatorRejectsMissBoth(t *testing.T) {
	store := kernel.BuildHandCommits(11)
	c := findCommit(t, store, kernel.ClassNPD, "devm_kzalloc")
	wrongAnchor := `
checker t_miss {
  bugtype "Null-Pointer-Dereference"
  track aliases
  source { call "some_other_alloc" yields nullable }
  guard { nullcheck }
  sink { deref unchecked }
}
`
	ck, err := ckdsl.CompileSource(wrongAnchor)
	if err != nil {
		t.Fatal(err)
	}
	v := NewValidator(50).Validate(ck, c)
	if v.Valid || v.NBuggy != 0 || v.NPatched != 0 {
		t.Fatalf("validation = %+v", v)
	}
}

func TestValidatorReportsRuntimeError(t *testing.T) {
	store := kernel.BuildHandCommits(11)
	c := findCommit(t, store, kernel.ClassDoubleFree, "kfree")
	crash := `
checker t_crash {
  bugtype "Double-Free"
  source { call "kfree" frees arg 7 }
  sink { call "kfree" arg 0 freed }
}
`
	ck, err := ckdsl.CompileSource(crash)
	if err != nil {
		t.Fatal(err)
	}
	v := NewValidator(50).Validate(ck, c)
	if !v.RuntimeError {
		t.Fatalf("expected runtime error, got %+v", v)
	}
}

func TestGenCheckerOnCapableCommit(t *testing.T) {
	store := kernel.BuildHandCommits(11)
	c := findCommit(t, store, kernel.ClassNPD, "devm_kzalloc")
	pipe := NewPipeline(llm.NewOracle(llm.O3Mini), Options{})
	out := pipe.GenChecker(c)
	if !out.Valid {
		t.Fatalf("synthesis failed: %+v", out.Failed)
	}
	if out.Spec == nil || out.Checker == nil {
		t.Fatal("valid outcome missing artifacts")
	}
	anchored := false
	for _, src := range out.Spec.Sources {
		if src.Callee == "devm_kzalloc" {
			anchored = true
		}
	}
	if !anchored {
		t.Errorf("checker not anchored on the patch API:\n%s", out.Spec.String())
	}
	if out.NBuggy <= out.NPatched {
		t.Errorf("validation counts: buggy %d, patched %d", out.NBuggy, out.NPatched)
	}
	if out.Usage.Calls == 0 || out.Usage.InputTokens == 0 {
		t.Error("no usage accounted")
	}
}

func TestGenCheckerOnIncapableCommitRecordsSymptoms(t *testing.T) {
	store := kernel.BuildHandCommits(11)
	c := findCommit(t, store, kernel.ClassNPD, "kstrdup") // destiny: incapable
	pipe := NewPipeline(llm.NewOracle(llm.O3Mini), Options{})
	out := pipe.GenChecker(c)
	if out.Valid {
		t.Fatal("incapable commit yielded a valid checker")
	}
	if out.Iterations != 10 {
		t.Errorf("iterations = %d, want 10", out.Iterations)
	}
	if len(out.Failed) != 10 {
		t.Errorf("failed records = %d, want 10", len(out.Failed))
	}
	for _, f := range out.Failed {
		switch f.Symptom {
		case SymptomCompile, SymptomRuntime, SymptomFlagBoth, SymptomMissBoth:
		default:
			t.Errorf("unknown symptom %q", f.Symptom)
		}
	}
}

func TestPipelineDeterminism(t *testing.T) {
	store := kernel.BuildHandCommits(11)
	run := func() []bool {
		pipe := NewPipeline(llm.NewOracle(llm.O3Mini), Options{})
		var out []bool
		for _, c := range store.All()[:12] {
			out = append(out, pipe.GenChecker(c).Valid)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("validity differs at commit %d", i)
		}
	}
}

// TestOptionsDefaults pins the synthesis budgets and the zero Options'
// validation threshold to the paper's (§4).
func TestOptionsDefaults(t *testing.T) {
	if MaxIterations != 10 || MaxRepairAttempts != 5 {
		t.Errorf("MaxIterations, MaxRepairAttempts = %d, %d, want 10, 5", MaxIterations, MaxRepairAttempts)
	}
	if tv := NewPipeline(llm.NewOracle(llm.O3Mini), Options{}).Val.TValid; tv != 50 {
		t.Errorf("zero Options' TValid = %d, want 50", tv)
	}
}

// TestSingleStageSkipsPatternAndPlan: the oracle's SingleStage alone
// selects the "w/o multi-stage" ablation. The pipeline synthesizes no
// plan and makes no pattern or plan call: every charged call is an
// implementation or a repair, so a failed iteration costs 1 + its
// repairs and the successful one at most 1 + MaxRepairAttempts.
func TestSingleStageSkipsPatternAndPlan(t *testing.T) {
	pipe := NewPipeline(&llm.Oracle{Profile: llm.O3Mini, SingleStage: true}, Options{})
	exact := 0
	for _, c := range kernel.BuildHandCommits(11).All() {
		out := pipe.GenChecker(c)
		if out.Plan == nil || len(out.Plan.Steps) != 0 {
			t.Fatalf("%s: single-stage synthesis produced a plan: %+v", c.ID, out.Plan)
		}
		calls := out.Iterations
		for _, f := range out.Failed {
			calls += f.RepairAttempts
		}
		switch got := out.Usage.Calls; {
		case !out.Valid && got != calls:
			t.Errorf("%s: %d calls over %d failed iterations, want %d", c.ID, got, out.Iterations, calls)
		case out.Valid && (got < calls || got > calls+MaxRepairAttempts):
			t.Errorf("%s: %d calls over %d iterations, want %d to %d", c.ID, got, out.Iterations, calls, calls+MaxRepairAttempts)
		}
		if !out.Valid {
			exact++
		}
	}
	if exact == 0 {
		t.Error("no commit failed single-stage synthesis; the exact call count went unchecked")
	}
}
