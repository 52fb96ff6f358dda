package llm

import (
	"fmt"
	"strings"

	"knighter/internal/vcs"
)

// PatternAnalysis is the output of the bug-pattern-analysis stage.
type PatternAnalysis struct {
	Facts    DiffFacts
	Text     string
	Accurate bool
}

// Plan is the output of the plan-synthesis stage.
type Plan struct {
	Steps    []string
	Accurate bool
}

// Text renders the plan as prose.
func (p *Plan) Text() string { return strings.Join(p.Steps, "\n") }

// Oracle is the deterministic simulated LLM the synthesis pipeline and
// the refinement loop drive.
type Oracle struct {
	Profile *Profile
	// SingleStage reproduces the "w/o multi-stage" ablation: the
	// synthesis pipeline skips the explicit pattern/plan stages, and the
	// oracle degrades its success and syntax rates to match (Table 3).
	SingleStage bool
	// RAG reproduces the RAG-example ablation: comparable quality at
	// roughly double the prompt-token cost.
	RAG bool
	// Namespace separates experiments so ablation runs draw fresh rolls.
	Namespace string
}

// NewOracle returns an oracle for the profile.
func NewOracle(p *Profile) *Oracle { return &Oracle{Profile: p} }

func (o *Oracle) key(parts ...string) []string {
	return append([]string{o.Profile.Name, o.Namespace, fmt.Sprint(o.SingleStage)}, parts...)
}

// rootCause classifies why the model fails on a commit it does not
// understand: inaccurate pattern (9%), inaccurate plan (32%), or
// inaccurate implementation (59%) — the §5.1 failure-root-cause split.
func (o *Oracle) rootCause(c *vcs.Commit) string {
	v := roll(o.key("rootcause", c.ID)...)
	switch {
	case v < 0.09:
		return "pattern"
	case v < 0.41:
		return "plan"
	default:
		return "impl"
	}
}

// capable reports whether the model will ever synthesize a valid checker
// for this commit; failures are commit-level, not attempt-level, because
// a misunderstood patch stays misunderstood across iterations. The
// hand-benchmark commits of the default model are pinned by the profile's
// calibration table; everything else is probabilistic.
func (o *Oracle) capable(c *vcs.Commit) bool {
	base := false
	if o.Profile.CommitSkill != nil && !c.AutoCollected {
		key := fmt.Sprintf("%s/%s#%d", c.Class, c.Flavor, c.Seq)
		if v, ok := o.Profile.CommitSkill[key]; ok {
			base = v
		} else {
			base = o.rollCapable(c)
		}
	} else {
		base = o.rollCapable(c)
	}
	if base && o.SingleStage {
		// Without the explicit pattern/plan stages some otherwise
		// tractable commits are never understood (paper Table 3: 8
		// valid single-stage vs 12 multi-stage).
		return rollBelow(0.67, o.key("ss-capable", c.ID)...)
	}
	return base
}

func (o *Oracle) rollCapable(c *vcs.Commit) bool {
	cap := o.Profile.CapabilityFor(c.Class)
	if !c.Detailed {
		// Terse commit messages make pattern extraction harder.
		cap *= 0.9
	}
	return rollBelow(cap, o.key("capable", c.ID)...)
}

// succeedsAt reports whether a capable model's iteration produces the
// correct checker (geometric over iterations).
func (o *Oracle) succeedsAt(c *vcs.Commit, iter int) bool {
	p := o.Profile.SuccessPerAttempt
	if o.SingleStage {
		p *= 0.65 // without the plan stage, more attempts flounder
	}
	return rollBelow(p, o.key("succ", c.ID, fmt.Sprint(iter))...)
}

// AnalyzePattern is the bug-pattern-analysis stage (paper Fig. 5a).
func (o *Oracle) AnalyzePattern(c *vcs.Commit, iter int) (*PatternAnalysis, Usage) {
	prompt := PatternPrompt(c, o.RAG)
	facts := ReadPatch(c)
	accurate := facts.Kind != FixUnknown
	if !o.capable(c) && o.rootCause(c) == "pattern" {
		// The model distills a wrong root cause: it fixates on an
		// incidental API in the patch context.
		facts = DiffFacts{Kind: facts.Kind, Anchor: wrongCallee(facts.Anchor)}
		accurate = false
	}
	text := fmt.Sprintf(
		"The bug pattern is %s anchored on %s: code calling %s without the corresponding guard is likely to exhibit the same defect.",
		facts.Kind, orUnknown(facts.Anchor), orUnknown(facts.Anchor))
	out := &PatternAnalysis{Facts: facts, Text: text, Accurate: accurate}
	return out, Usage{InputTokens: EstimateTokens(prompt), OutputTokens: EstimateTokens(text), Calls: 1}
}

// SynthesizePlan is the plan-synthesis stage (paper Fig. 5b).
func (o *Oracle) SynthesizePlan(c *vcs.Commit, pa *PatternAnalysis, iter int) (*Plan, Usage) {
	prompt := PlanPrompt(c, pa.Text, o.RAG)
	steps := planSteps(pa.Facts)
	accurate := pa.Accurate
	if !o.capable(c) && o.rootCause(c) == "plan" {
		// Plausible but wrong plan: the right events, the wrong state
		// machine.
		steps = []string{
			"1. Track every pointer assignment in a program-state map.",
			"2. On any call, clear the map.",
			"3. Report at end of function if the map is non-empty.",
		}
		accurate = false
	}
	return &Plan{Steps: steps, Accurate: accurate},
		Usage{InputTokens: EstimateTokens(prompt), OutputTokens: EstimateTokens(strings.Join(steps, "\n")), Calls: 1}
}

func planSteps(f DiffFacts) []string {
	switch f.Kind {
	case FixAddNullCheck:
		return []string{
			"1. Program state: map regions returned by " + f.Anchor + "() to a checked/unchecked flag.",
			"2. checkPostCall: on " + f.Anchor + "(), record the returned region as unchecked.",
			"3. checkBranchCondition: recognize if (!p) / p == NULL and mark the region checked.",
			"4. checkLocation: report a dereference of an unchecked region.",
			"5. checkBind: propagate the flag across pointer aliases.",
		}
	case FixMoveFreeLater:
		steps := []string{
			"1. Program state: map objects freed by " + f.Anchor + "().",
			"2. checkPostCall: mark the argument of " + f.Anchor + "() freed.",
			"3. checkLocation: report any dereference of freed memory.",
		}
		if f.Derive != "" {
			steps = append(steps, "4. checkPostCall: link "+f.Derive+"() results to their base object so freeing the base frees the derived data.")
		}
		return steps
	case FixClearOrDropDupFree:
		return []string{
			"1. Program state: map objects released by " + f.Anchor + "().",
			"2. checkPreCall: report a second " + f.Anchor + "() on an already-freed object.",
		}
	case FixFreeOnErrorPath:
		return []string{
			"1. Program state: map allocations from " + f.Anchor + "().",
			"2. checkPostCall: stop tracking when " + f.Release + "() releases or the pointer escapes.",
			"3. checkEndFunction: report allocations still held on a return path.",
		}
	case FixInitCleanupPtr:
		return []string{
			"1. checkDecl: track __free() pointers declared without an initializer.",
			"2. checkEndFunction: report paths where cleanup runs while the pointer is still uninitialized.",
		}
	case FixAddUnlockOnPath:
		return []string{
			"1. Program state: lock map keyed by lock object.",
			"2. checkPostCall: set on " + f.Anchor + "(), clear on " + f.Release + "().",
			"3. checkEndFunction: report returns with the lock held.",
			"4. checkPreCall: report re-acquisition of a held lock.",
		}
	case FixClampUserCopy:
		return []string{
			"1. checkPreCall: at copy_from_user(), compare the size argument's range against the destination buffer's declared capacity minus one.",
			"2. Report when the copy can exceed the capacity.",
		}
	case FixAddBoundBeforeMulAlloc:
		return []string{
			"1. checkPreCall: at " + f.Anchor + "(), inspect a multiplicative size argument.",
			"2. Report when the operand ranges allow a 32-bit overflow.",
		}
	case FixAddIndexBound:
		return []string{
			"1. checkPostCall: taint indexes produced by " + f.Anchor + "().",
			"2. checkLocation: report tainted subscripts that can exceed the array bound.",
		}
	case FixTerminateBuffer:
		return []string{
			"1. checkPostCall: mark buffers written by copy_from_user() as unterminated.",
			"2. checkBind: clear the mark when a terminating zero is stored.",
			"3. checkPreCall: report " + f.Consumer + "() on an unterminated buffer.",
		}
	case FixCheckSign:
		return []string{
			"1. Track the value returned by " + f.Anchor + "().",
			"2. checkPreCall: report passing a possibly-negative value to " + f.Consumer + "().",
		}
	}
	return []string{"1. Inspect calls related to the patch.", "2. Report suspicious uses."}
}

func orUnknown(s string) string {
	if s == "" {
		return "<unknown>"
	}
	return s
}

// wrongCallee produces the kind of near-miss API confusion real models
// exhibit (dropping a devm_ prefix, swapping to a sibling API).
func wrongCallee(anchor string) string {
	switch {
	case anchor == "":
		return "kmalloc"
	case strings.HasPrefix(anchor, "devm_"):
		return strings.TrimPrefix(anchor, "devm_")
	case strings.HasSuffix(anchor, "zalloc"):
		return strings.TrimSuffix(anchor, "zalloc") + "calloc"
	default:
		return anchor + "_sync"
	}
}
