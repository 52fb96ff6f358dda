package eval

import (
	"fmt"
	"strings"

	"knighter/internal/checker"
	"knighter/internal/kernel"
	"knighter/internal/refine"
	"knighter/internal/scan"
	"knighter/internal/smatch"
)

// OrthogonalityResult reproduces RQ3 (§5.3): the expert-written baseline
// finds a large, disjoint report population.
type OrthogonalityResult struct {
	SmatchErrors   int
	SmatchWarnings int
	// Overlap counts KNighter true positives that Smatch also flags
	// (same file+function with an equivalent check category).
	Overlap        int
	KNighterTPs    int
	SampleFindings []smatch.Finding
}

// RunOrthogonality runs the baseline across the corpus and intersects
// with KNighter's confirmed detections.
func (h *Harness) RunOrthogonality(bugs *BugDetectionResult) (*OrthogonalityResult, error) {
	sm, err := smatch.Run(h.Corpus)
	if err != nil {
		return nil, err
	}
	res := &OrthogonalityResult{
		SmatchErrors:   sm.Errors(),
		SmatchWarnings: sm.Warnings(),
		KNighterTPs:    len(bugs.Found),
	}
	if len(sm.Findings) > 5 {
		res.SampleFindings = sm.Findings[:5]
	} else {
		res.SampleFindings = sm.Findings
	}
	// Index Smatch findings by site and category equivalence.
	type site struct{ file, fn string }
	smatchAt := map[site][]smatch.Finding{}
	for _, f := range sm.Findings {
		smatchAt[site{f.File, f.Func}] = append(smatchAt[site{f.File, f.Func}], f)
	}
	for _, fb := range bugs.Found {
		for _, f := range smatchAt[site{fb.Bug.File, fb.Bug.Func}] {
			if smatchCategoryMatches(f.Check, fb.Bug.Class) {
				res.Overlap++
				break
			}
		}
	}
	return res, nil
}

// smatchCategoryMatches maps baseline check names onto the bug taxonomy.
func smatchCategoryMatches(check, class string) bool {
	switch check {
	case "check_deref":
		return class == kernel.ClassNPD
	case "uninitialized":
		return class == kernel.ClassUBI
	case "unchecked_return":
		return class == kernel.ClassMisuse
	default:
		return false
	}
}

// Render formats the RQ3 comparison.
func (r *OrthogonalityResult) Render() string {
	var sb strings.Builder
	sb.WriteString("RQ3: Orthogonality with the expert-written baseline (Smatch analog).\n\n")
	fmt.Fprintf(&sb, "Baseline reports: %d errors, %d warnings across the corpus\n",
		r.SmatchErrors, r.SmatchWarnings)
	fmt.Fprintf(&sb, "KNighter true positives also detected by the baseline: %d of %d\n\n",
		r.Overlap, r.KNighterTPs)
	sb.WriteString("Sample baseline findings:\n")
	for _, f := range r.SampleFindings {
		sb.WriteString("  " + f.String() + "\n")
	}
	return sb.String()
}

// TriageEvalResult reproduces RQ4 (§5.4.1): the triage agent's confusion
// matrix on sampled reports plus 5-way self-consistency.
type TriageEvalResult struct {
	SampledReports    int
	ReportingCheckers int
	SilentCheckers    int
	TP, FP, TN, FN    int
	// Majority voting at thresholds 3 and 4 (5 runs).
	TPAt3, FPAt3 int
	TPAt4, FPAt4 int
}

// RunTriageEval samples up to refine.SampleSize reports per valid
// checker, from a scan capped as the refinement loop caps its own, and
// grades the triage agent against ground truth.
func (h *Harness) RunTriageEval(handOutcomes []*SynthesisOutcome) *TriageEvalResult {
	if handOutcomes == nil {
		handOutcomes = h.RunCommits(h.Hand)
	}
	res := &TriageEvalResult{}
	// Valid checkers, pre-refinement (the RQ4 population), scanned as one
	// batch over the shared store: each checker's result is identical to a
	// standalone scan, but all of them share one pass over the corpus
	// (every function probed, lowered and gated once for all of them)
	// instead of running strictly one after another.
	var valid []*SynthesisOutcome
	var cks []checker.Checker
	for _, so := range handOutcomes {
		if so.Synth.Valid {
			valid = append(valid, so)
			cks = append(cks, so.Synth.Checker)
		}
	}
	batch := h.Inc.RunBatch(cks, nil, scan.Options{MaxReports: refine.ScanCap}, 0)
	for bi, so := range valid {
		scanRes := batch[bi]
		if len(scanRes.Reports) == 0 {
			res.SilentCheckers++
			continue
		}
		res.ReportingCheckers++
		sample := refine.Sample(scanRes.Reports, refine.SampleSize, so.Commit.ID)
		for _, rep := range sample {
			res.SampledReports++
			truth := h.Triage.IsTruePositive(rep)
			single := h.Triage.Classify(rep, 0).Bug
			switch {
			case single && truth:
				res.TP++
			case single && !truth:
				res.FP++
			case !single && !truth:
				res.TN++
			default:
				res.FN++
			}
			v3 := h.Triage.MajorityVote(rep, 5, 3).Bug
			v4 := h.Triage.MajorityVote(rep, 5, 4).Bug
			if v3 && truth {
				res.TPAt3++
			}
			if v3 && !truth {
				res.FPAt3++
			}
			if v4 && truth {
				res.TPAt4++
			}
			if v4 && !truth {
				res.FPAt4++
			}
		}
	}
	return res
}

// Render formats the RQ4 study.
func (r *TriageEvalResult) Render() string {
	var sb strings.Builder
	sb.WriteString("RQ4: Bug triage agent evaluation.\n\n")
	fmt.Fprintf(&sb, "Sampled %d reports from %d reporting checkers (%d valid checkers were silent)\n",
		r.SampledReports, r.ReportingCheckers, r.SilentCheckers)
	fmt.Fprintf(&sb, "Single-run agent:  TP %d  FP %d  TN %d  FN %d\n", r.TP, r.FP, r.TN, r.FN)
	fmt.Fprintf(&sb, "5-way majority (t=3): TP %d  FP %d\n", r.TPAt3, r.FPAt3)
	fmt.Fprintf(&sb, "5-way majority (t=4): TP %d  FP %d\n", r.TPAt4, r.FPAt4)
	if r.FN == 0 {
		sb.WriteString("Zero false negatives: the agent never discards a true bug.\n")
	}
	return sb.String()
}
