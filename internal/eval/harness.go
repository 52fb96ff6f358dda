// Package eval regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic substrate: Table 1 (synthesis),
// Table 2 + Figure 9 (bug detection), Table 3 (ablation), the RQ3
// orthogonality comparison, and the RQ4 triage-agent study.
package eval

import (
	"knighter/internal/kernel"
	"knighter/internal/llm"
	"knighter/internal/refine"
	"knighter/internal/scan"
	"knighter/internal/store"
	"knighter/internal/synth"
	"knighter/internal/triage"
	"knighter/internal/vcs"
)

// The evaluation's fixed commit datasets: the seed of the 61
// hand-labeled benchmark commits, and the seed and size of the
// auto-collected NPD commit set.
const (
	CommitSeed = 11
	AutoSeed   = 13
	AutoCount  = 100
)

// Harness owns the shared state of an evaluation run.
type Harness struct {
	Corpus   *kernel.Corpus
	Codebase *scan.Codebase
	// Inc schedules every harness scan through one shared
	// analysis-result cache: the refinement loop, the bug-detection
	// deployment scan, and the RQ3 per-checker scans all hit the same
	// store, so re-running a table is largely cache-served.
	Inc    *scan.Incremental
	Hand   *vcs.Store
	Auto   *vcs.Store
	Pipe   *synth.Pipeline
	Triage *triage.Agent
	Loop   *refine.Loop
}

// NewHarness builds the corpus cfg names, parses it, and wires the
// pipeline. Every other seed is fixed, so two runs with the same cfg
// produce byte-identical outputs.
func NewHarness(cfg kernel.Config) (*Harness, error) {
	corpus := kernel.Generate(cfg)
	cb, err := scan.NewCodebase(corpus)
	if err != nil {
		return nil, err
	}
	pipe := synth.NewPipeline(llm.NewOracle(llm.O3Mini), synth.Options{})
	tr := triage.NewAgent(corpus)
	inc := scan.NewIncremental(cb, store.NewMemory(0))
	return &Harness{
		Corpus:   corpus,
		Codebase: cb,
		Inc:      inc,
		Hand:     kernel.BuildHandCommits(CommitSeed),
		Auto:     kernel.BuildAutoNPDCommits(AutoSeed, AutoCount),
		Pipe:     pipe,
		Triage:   tr,
		Loop:     refine.NewLoop(inc, tr, pipe),
	}, nil
}

// SynthesisOutcome couples a commit's synthesis result with its
// refinement disposition.
type SynthesisOutcome struct {
	Commit *vcs.Commit
	Synth  *synth.Outcome
	Refine *refine.Result // nil when synthesis failed
}

// Plausible reports whether the final checker may be deployed for bug
// finding.
func (s *SynthesisOutcome) Plausible() bool {
	return s.Refine != nil && s.Refine.Disposition != refine.Fail
}

// RunCommits synthesizes and refines checkers for every commit in the
// store, in insertion order.
func (h *Harness) RunCommits(store *vcs.Store) []*SynthesisOutcome {
	var out []*SynthesisOutcome
	for _, c := range store.All() {
		so := &SynthesisOutcome{Commit: c, Synth: h.Pipe.GenChecker(c)}
		if so.Synth.Valid {
			so.Refine = h.Loop.Run(c, so.Synth.Checker)
		}
		out = append(out, so)
	}
	return out
}
