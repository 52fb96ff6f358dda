// Package synth implements Algorithm 1 of the paper: the multi-stage
// checker-synthesis pipeline (pattern analysis → plan synthesis →
// implementation → syntax repair → differential validation).
package synth

import (
	"knighter/internal/ckdsl"
	"knighter/internal/llm"
	"knighter/internal/vcs"
)

// The paper's synthesis budgets (§4).
const (
	// MaxIterations bounds the synthesis attempts per commit.
	MaxIterations = 10
	// MaxRepairAttempts bounds the syntax repairs per attempt.
	MaxRepairAttempts = 5
)

// Options configures the pipeline.
type Options struct {
	// TValid is the validation threshold: a valid checker reports
	// fewer than TValid times on the patched code (0 = the paper's 50).
	TValid int
}

// Symptom classifies one failed synthesis attempt (§5.1 taxonomy).
type Symptom string

// Failure symptoms.
const (
	SymptomCompile  Symptom = "compile-error"
	SymptomRuntime  Symptom = "runtime-error"
	SymptomFlagBoth Symptom = "semantic-flag-both"
	SymptomMissBoth Symptom = "semantic-miss-both"
)

// AttemptRecord is the telemetry of one iteration.
type AttemptRecord struct {
	Iteration      int
	Symptom        Symptom
	RepairAttempts int
}

// Outcome is the result of GenChecker for one commit.
type Outcome struct {
	Commit *vcs.Commit
	// Spec and Checker are set when a valid checker was produced.
	Spec    *ckdsl.Spec
	Checker *ckdsl.Compiled
	// Valid reports whether synthesis succeeded within MaxIterations.
	Valid bool
	// Iterations used (successful one included).
	Iterations int
	// Failed attempt records, in order.
	Failed []AttemptRecord
	// Pattern and Plan of the successful iteration (or the last one).
	Pattern *llm.PatternAnalysis
	Plan    *llm.Plan
	// Usage totals all agent calls for this commit.
	Usage llm.Usage
	// Validation counts from the successful iteration.
	NBuggy, NPatched int
}

// Pipeline drives checker synthesis for commits.
type Pipeline struct {
	Model *llm.Oracle
	Val   *Validator
}

// NewPipeline builds a pipeline with the given model and options.
func NewPipeline(model *llm.Oracle, opts Options) *Pipeline {
	return &Pipeline{Model: model, Val: NewValidator(opts.TValid)}
}

// GenChecker runs Algorithm 1 for one commit.
func (p *Pipeline) GenChecker(c *vcs.Commit) *Outcome {
	out := &Outcome{Commit: c}
	for iter := 1; iter <= MaxIterations; iter++ {
		out.Iterations = iter

		// Stage 1+2: pattern analysis and plan synthesis. The
		// single-stage ablation skips the explicit stages: the model
		// still reads the patch internally, charged as the merged
		// prompt's input tokens and no call, but without the structured
		// intermediate artifacts its output degrades (handled by the
		// oracle).
		pa, u := p.Model.AnalyzePattern(c, iter)
		var plan *llm.Plan
		if p.Model.SingleStage {
			out.Usage.Add(llm.Usage{InputTokens: u.InputTokens, Calls: 0})
			plan = &llm.Plan{Steps: nil, Accurate: pa.Accurate}
		} else {
			out.Usage.Add(u)
			plan, u = p.Model.SynthesizePlan(c, pa, iter)
			out.Usage.Add(u)
		}
		out.Pattern, out.Plan = pa, plan

		// Stage 3: implementation plus bounded syntax repair.
		text, u := p.Model.ImplementChecker(c, pa, plan, iter)
		out.Usage.Add(u)
		var compiled *ckdsl.Compiled
		var cerr error
		repairs := 0
		for {
			compiled, cerr = ckdsl.CompileSource(text)
			if cerr == nil || repairs >= MaxRepairAttempts {
				break
			}
			repairs++
			text, u = p.Model.RepairChecker(c, iter, repairs, text, cerr.Error())
			out.Usage.Add(u)
		}
		if cerr != nil {
			out.Failed = append(out.Failed, AttemptRecord{Iteration: iter, Symptom: SymptomCompile, RepairAttempts: repairs})
			continue
		}

		// Stage 4: differential validation against the patch.
		v := p.Val.Validate(compiled, c)
		if v.RuntimeError {
			out.Failed = append(out.Failed, AttemptRecord{Iteration: iter, Symptom: SymptomRuntime, RepairAttempts: repairs})
			continue
		}
		if v.Valid {
			out.Valid = true
			out.Spec = compiled.Spec()
			out.Checker = compiled
			out.NBuggy, out.NPatched = v.NBuggy, v.NPatched
			return out
		}
		sym := SymptomMissBoth
		if v.NBuggy > 0 {
			sym = SymptomFlagBoth
		}
		out.Failed = append(out.Failed, AttemptRecord{Iteration: iter, Symptom: sym, RepairAttempts: repairs})
	}
	return out
}
