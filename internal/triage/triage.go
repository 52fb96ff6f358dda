// Package triage implements report distillation and the bug-triage agent
// (paper §3.2, Fig. 5c): reports are stripped to their essential lines
// and classified TP ("bug") / FP ("not-a-bug") against the target
// pattern.
//
// The agent's judgment is simulated with calibrated access to the
// corpus's ground truth: real bugs are always labeled "bug" (the paper
// measured zero false negatives for its agent, §5.4.1), while false
// reports are mislabeled "bug" at FPBugRate (the over-approval the paper
// observed).
package triage

import (
	"fmt"
	"math"
	"strings"

	"knighter/internal/checker"
	"knighter/internal/kernel"
	"knighter/internal/llm"
)

// Distilled is the reduced report handed to the triage agent: the
// relevant lines and trace only, stripped of surrounding context (§3.2).
type Distilled struct {
	File    string
	Func    string
	Line    int
	Checker string
	BugType string
	Message string
	Region  string
	Trace   []string
}

// Distill reduces a full report.
func Distill(r *checker.Report) Distilled {
	d := Distilled{
		File: r.File, Func: r.Func, Line: r.Pos.Line,
		Checker: r.Checker, BugType: r.BugType, Message: r.Message,
		Region: r.RegionAt,
	}
	for _, t := range r.Trace {
		d.Trace = append(d.Trace, fmt.Sprintf("%d: %s", t.Pos.Line, t.Note))
	}
	if len(d.Trace) > 8 {
		d.Trace = d.Trace[len(d.Trace)-8:]
	}
	return d
}

// Render formats the distilled report for the triage prompt.
func (d Distilled) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:%d in %s(): [%s] %s", d.File, d.Line, d.Func, d.BugType, d.Message)
	if d.Region != "" {
		fmt.Fprintf(&sb, " (at %s)", d.Region)
	}
	for _, t := range d.Trace {
		sb.WriteString("\n  " + t)
	}
	return sb.String()
}

// Verdict is a triage decision.
type Verdict struct {
	Bug    bool
	Reason string
}

// FPBugRate is the probability a false report is (incorrectly) labeled
// "bug"; the paper's agent approved 22 of 72 false reports (§5.4.1).
const FPBugRate = 0.32

// Agent classifies reports.
type Agent struct {
	Corpus *kernel.Corpus
	// Usage accounts the simulated prompt/response tokens.
	Usage llm.Usage
}

// NewAgent returns a triage agent over the corpus ground truth.
func NewAgent(c *kernel.Corpus) *Agent {
	return &Agent{Corpus: c}
}

// IsTruePositive consults ground truth: the report must land in a seeded
// bug's function and match its class.
func (a *Agent) IsTruePositive(r *checker.Report) bool {
	bug, ok := a.Corpus.IsBugSite(r.File, r.Func)
	if !ok {
		return false
	}
	return kernel.BugTypeName(bug.Class) == r.BugType
}

// Classify runs the agent once on a report. run distinguishes
// self-consistency resamples (§5.4.1): the same report can get different
// verdicts across runs, but (report, run) is deterministic.
func (a *Agent) Classify(r *checker.Report, run int) Verdict {
	d := Distill(r)
	prompt := llm.TriagePrompt("(patch elided)", r.Checker, d.Render())
	a.Usage.Add(llm.Usage{InputTokens: llm.EstimateTokens(prompt), OutputTokens: 40, Calls: 1})

	if a.IsTruePositive(r) {
		return Verdict{Bug: true, Reason: "matches the target bug pattern; the flagged path is feasible"}
	}
	// A false report: some false reports are inherently convincing and
	// fool the agent on (almost) every run, others are obviously
	// spurious. The per-report convincingness c is fixed; per-run draws
	// vary around it. The exponent keeps the marginal "bug" rate at
	// FPBugRate while making verdicts strongly report-correlated — which
	// is why n-way self-consistency barely improves over a single run
	// (paper §5.4.1).
	//
	// Both draws lead with an empty key part: the calibrated verdicts,
	// and every table built on them, were drawn with it.
	c := llm.Roll("", "convincing", r.Key(), r.Message)
	exponent := 1.0/FPBugRate - 1.0
	pRun := powFast(c, exponent)
	if llm.Roll("", r.Key(), r.Message, fmt.Sprint(run)) < pRun {
		return Verdict{Bug: true, Reason: "pattern appears to match; could not rule the path infeasible"}
	}
	return Verdict{Bug: false, Reason: "guard or reinitialization on the path makes the report spurious"}
}

// powFast computes c^e for the convincingness curve; inputs are in
// (0,1) and e > 0, so math.Pow edge cases do not arise.
func powFast(c, e float64) float64 {
	if c <= 0 {
		return 0
	}
	if c >= 1 {
		return 1
	}
	return math.Pow(c, e)
}

// MajorityVote classifies with n-way self-consistency: the report is
// labeled "bug" iff at least threshold runs say so (§5.4.1).
func (a *Agent) MajorityVote(r *checker.Report, n, threshold int) Verdict {
	bugVotes := 0
	for run := 0; run < n; run++ {
		if a.Classify(r, run).Bug {
			bugVotes++
		}
	}
	return Verdict{
		Bug:    bugVotes >= threshold,
		Reason: fmt.Sprintf("%d/%d runs voted bug", bugVotes, n),
	}
}
