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

// Options mirrors the paper's refinement parameters.
type Options struct {
	TPlausible    int // < TPlausible reports => plausible (default 20)
	SampleSize    int // triaged warnings per round (default 5)
	MaxFPInSample int // plausible if sampled FPs <= this (default 1)
	MaxIters      int // refinement rounds (default 3)
	ScanCap       int // refinement-phase warning cap (default 100)
}

func (o Options) withDefaults() Options {
	if o.TPlausible <= 0 {
		o.TPlausible = 20
	}
	if o.SampleSize <= 0 {
		o.SampleSize = 5
	}
	if o.MaxFPInSample <= 0 {
		o.MaxFPInSample = 1
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 3
	}
	if o.ScanCap <= 0 {
		o.ScanCap = 100
	}
	return o
}

// Loop drives refinement for valid checkers.
type Loop struct {
	// Inc schedules the loop's corpus scans through the analysis-result
	// cache: successive refinement rounds re-scan a near-identical
	// checker over an unchanged corpus, so most per-function work is a
	// cache hit, and the stillWarnsAt acceptance re-scans are pure hits.
	Inc    *scan.Incremental
	Triage *triage.Agent
	Model  llm.Model
	Val    *synth.Validator
	Opts   Options
}

// Codebase returns the parsed corpus the loop scans.
func (l *Loop) Codebase() *scan.Codebase { return l.Inc.Codebase() }

// NewLoop assembles a refinement loop with a private in-memory result
// cache. Use NewLoopWith to share a cache with other scan consumers
// (eval harness, kserve).
func NewLoop(cb *scan.Codebase, tr *triage.Agent, model llm.Model, val *synth.Validator, opts Options) *Loop {
	return NewLoopWith(scan.NewIncremental(cb, nil), tr, model, val, opts)
}

// NewLoopWith assembles a refinement loop over an existing incremental
// scanner (and therefore its result store).
func NewLoopWith(inc *scan.Incremental, tr *triage.Agent, model llm.Model, val *synth.Validator, opts Options) *Loop {
	return &Loop{Inc: inc, Triage: tr, Model: model, Val: val, Opts: opts.withDefaults()}
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

// Run refines one valid checker until plausible or the iteration budget
// is exhausted.
func (l *Loop) Run(commit *vcs.Commit, spec *ckdsl.Spec) *Result {
	res := &Result{Commit: commit, Spec: spec}
	cur := spec
	for round := 0; ; round++ {
		res.Rounds = round + 1
		ck, err := ckdsl.Compile(cur)
		if err != nil {
			// A refinement broke the checker (should not happen; the
			// acceptance check recompiles) — treat as failure.
			res.Disposition = Fail
			return res
		}
		res.Checker = ck
		res.Spec = cur
		scanRes := l.Inc.RunOne(ck, scan.Options{MaxReports: l.Opts.ScanCap})
		res.FinalReports = scanRes.Reports

		if len(scanRes.Reports) < l.Opts.TPlausible {
			res.Disposition = dispositionFor(round)
			return res
		}
		sample := sampleReports(scanRes.Reports, l.Opts.SampleSize, commit.ID, round)
		var fps []*checker.Report
		for _, r := range sample {
			if !l.Triage.Classify(r, 0).Bug {
				fps = append(fps, r)
			}
		}
		if len(fps) <= l.Opts.MaxFPInSample {
			res.Disposition = dispositionFor(round)
			return res
		}
		if round >= l.Opts.MaxIters {
			res.Disposition = Fail
			return res
		}

		// Refinement: hand the FP functions' source to the agent. An
		// unproductive round (no change, or a change that is rejected)
		// consumes the iteration but the loop re-samples and retries
		// until the iteration budget runs out.
		fpSources := l.fpFunctionSources(fps)
		next, usage := l.Model.RefineChecker(commit, cur, fpSources, round)
		res.Usage.Add(usage)
		if next.String() == cur.String() {
			continue // nothing to apply this round
		}
		if !l.acceptRefinement(commit, next, fps) {
			continue
		}
		cur = next
		res.Steps++
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
// progress — and (2) still distinguishes buggy from patched code.
func (l *Loop) acceptRefinement(commit *vcs.Commit, next *ckdsl.Spec, fps []*checker.Report) bool {
	ck, err := ckdsl.Compile(next)
	if err != nil {
		return false
	}
	v := l.Val.Validate(ck, commit)
	if !v.Valid || v.RuntimeError {
		return false
	}
	warns := l.stillWarns(ck, fps)
	cleared := 0
	for _, fp := range fps {
		if !warns[fp.File+"|"+fp.Func] {
			cleared++
		}
	}
	return cleared > 0
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
		for i, f := range cb.Corpus.Files {
			if f.Path != fp.File {
				continue
			}
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
