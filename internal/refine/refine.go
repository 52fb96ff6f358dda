// Package refine implements the closed-loop checker-refinement phase
// (paper §3.2 and §4): each valid checker scans the corpus, a triage
// agent labels sampled warnings, and a refinement agent tightens the
// checker until it is "plausible" — or the loop gives up.
package refine

import (
	"math/rand"

	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/llm"
	"knighter/internal/minic"
	"knighter/internal/scan"
	"knighter/internal/synth"
	"knighter/internal/triage"
	"knighter/internal/vcs"
)

// Disposition is the refinement outcome of one valid checker.
type Disposition string

// Dispositions.
const (
	// DirectPlausible: the checker was plausible on its first scan.
	DirectPlausible Disposition = "direct"
	// RefinedPlausible: the checker became plausible after refinement.
	RefinedPlausible Disposition = "refined"
	// Fail: refinement could not reach plausibility.
	Fail Disposition = "fail"
)

// The paper's refinement parameters (§4).
const (
	// TPlausible: a checker with fewer reports than this is plausible.
	TPlausible = 20
	// SampleSize is the number of warnings triaged per round.
	SampleSize = 5
	// MaxFPInSample: a checker is plausible if the triage agent labels
	// at most this many sampled warnings false positives.
	MaxFPInSample = 1
	// MaxIters is the number of refinement rounds.
	MaxIters = 3
	// ScanCap caps the warnings a refinement-phase scan collects.
	ScanCap = 100
)

// Loop drives refinement for valid checkers.
type Loop struct {
	// Inc schedules the loop's corpus scans through the analysis-result
	// cache: successive refinement rounds re-scan a near-identical
	// checker over an unchanged corpus, so most per-function work is a
	// cache hit, and the stillWarns acceptance re-scans are pure hits.
	Inc    *scan.Incremental
	Triage *triage.Agent
	// Pipe supplies the refinement agent (its model) and the
	// differential validator the acceptance check re-runs.
	Pipe *synth.Pipeline
}

// Codebase returns the parsed corpus the loop scans.
func (l *Loop) Codebase() *scan.Codebase { return l.Inc.Codebase() }

// NewLoop assembles a refinement loop over an incremental scanner (and
// therefore its result store), with the model and validator of pipe.
func NewLoop(inc *scan.Incremental, tr *triage.Agent, pipe *synth.Pipeline) *Loop {
	return &Loop{Inc: inc, Triage: tr, Pipe: pipe}
}

// Result of refining one checker.
type Result struct {
	Commit      *vcs.Commit
	Disposition Disposition
	// Spec and Checker are the final (possibly refined) versions.
	Spec    *ckdsl.Spec
	Checker *ckdsl.Compiled
	// Steps counts accepted refinement steps.
	Steps int
	// Rounds counts scan/triage rounds performed.
	Rounds int
	// FinalReports is the last refinement-phase scan's report list.
	FinalReports []*checker.Report
	Usage        llm.Usage
}

// Run refines one valid checker, as synthesis compiled it, until
// plausible or the iteration budget is exhausted.
func (l *Loop) Run(commit *vcs.Commit, ck *ckdsl.Compiled) *Result {
	res := &Result{Commit: commit}
	for round := 0; ; round++ {
		res.Rounds = round + 1
		res.Checker = ck
		res.Spec = ck.Spec()
		scanRes := l.Inc.RunOne(ck, scan.Options{MaxReports: ScanCap})
		res.FinalReports = scanRes.Reports

		if len(scanRes.Reports) < TPlausible {
			res.Disposition = dispositionFor(round)
			return res
		}
		sample := sampleReports(scanRes.Reports, SampleSize, commit.ID, round)
		var fps []*checker.Report
		for _, r := range sample {
			if !l.Triage.Classify(r, 0).Bug {
				fps = append(fps, r)
			}
		}
		if len(fps) <= MaxFPInSample {
			res.Disposition = dispositionFor(round)
			return res
		}
		if round >= MaxIters {
			res.Disposition = Fail
			return res
		}

		// Refinement: hand the FP functions' source to the agent. An
		// unproductive round (no change, or a change that is rejected)
		// consumes the iteration but the loop re-samples and retries
		// until the iteration budget runs out.
		fpSources := l.fpFunctionSources(fps)
		next, usage := l.Pipe.Model.RefineChecker(commit, res.Spec, fpSources, round)
		res.Usage.Add(usage)
		if next.String() == res.Spec.String() {
			continue // nothing to apply this round
		}
		if refined := l.acceptRefinement(commit, next, fps); refined != nil {
			ck = refined
			res.Steps++
		}
	}
}

func dispositionFor(round int) Disposition {
	if round == 0 {
		return DirectPlausible
	}
	return RefinedPlausible
}

// acceptRefinement enforces the paper's acceptance criteria: the refined
// checker (1) clears identified false positives — at least one of them,
// since a sample can mix FP classes and a fix for one class is still
// progress — and (2) still distinguishes buggy from patched code. It
// returns the compiled refinement, or nil if it is rejected.
func (l *Loop) acceptRefinement(commit *vcs.Commit, next *ckdsl.Spec, fps []*checker.Report) *ckdsl.Compiled {
	ck, err := ckdsl.Compile(next)
	if err != nil {
		return nil
	}
	v := l.Pipe.Val.Validate(ck, commit)
	if !v.Valid || v.RuntimeError {
		return nil
	}
	warns := l.stillWarns(ck, fps)
	cleared := 0
	for _, fp := range fps {
		if !warns[fp.File+"|"+fp.Func] {
			cleared++
		}
	}
	if cleared == 0 {
		return nil
	}
	return ck
}

// stillWarns re-analyzes every FP's file in one batched scan — through
// the result cache, so the unchanged functions of those files cost
// nothing — and returns the set of file|func sites where the refined
// checker still reports.
func (l *Loop) stillWarns(ck *ckdsl.Compiled, fps []*checker.Report) map[string]bool {
	var files []int
	seen := map[int]bool{}
	for _, fp := range fps {
		if i := l.Codebase().FileIndex(fp.File); i >= 0 && !seen[i] {
			seen[i] = true
			files = append(files, i)
		}
	}
	warns := map[string]bool{}
	if len(files) == 0 {
		return warns
	}
	out := l.Inc.RunFiles(files, []checker.Checker{ck}, scan.Options{Workers: 1})
	for _, r := range out.Reports {
		warns[r.File+"|"+r.Func] = true
	}
	return warns
}

// fpFunctionSources extracts the source text of the FP functions for the
// refinement prompt.
func (l *Loop) fpFunctionSources(fps []*checker.Report) []string {
	var out []string
	seen := map[string]bool{}
	for _, fp := range fps {
		key := fp.File + "|" + fp.Func
		if seen[key] {
			continue
		}
		seen[key] = true
		cb := l.Codebase()
		if i := cb.FileIndex(fp.File); i >= 0 {
			if fn := cb.Files()[i].LookupFunc(fp.Func); fn != nil {
				out = append(out, minic.FormatFunc(fn))
			}
		}
	}
	return out
}

// Sample is the refinement loop's deterministic sampler for evaluation
// code that needs the same sampling discipline (RQ4): up to n reports,
// drawn by a permutation keyed by key.
func Sample(reports []*checker.Report, n int, key string) []*checker.Report {
	return sampleReports(reports, n, key, 0)
}

// sampleReports draws a deterministic sample of up to n reports (the
// paper samples 5 warnings with a fixed random seed).
func sampleReports(reports []*checker.Report, n int, commitID string, round int) []*checker.Report {
	if len(reports) <= n {
		return reports
	}
	h := int64(0)
	for _, b := range []byte(commitID) {
		h = h*131 + int64(b)
	}
	r := rand.New(rand.NewSource(h ^ int64(round)<<17))
	idx := r.Perm(len(reports))[:n]
	out := make([]*checker.Report, 0, n)
	for _, i := range idx {
		out = append(out, reports[i])
	}
	return out
}
