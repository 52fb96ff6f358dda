package llm

import (
	"fmt"
	"strings"

	"knighter/internal/ckdsl"
	"knighter/internal/vcs"
)

// attemptDefect classifies the semantic layer of one generation attempt.
type attemptDefect int

const (
	defectNone         attemptDefect = iota
	defectRuntime                    // hallucinated API usage that crashes at analysis time
	defectWrongCallee                // compiles, tracks the wrong function (misses both sides)
	defectMissingGuard               // compiles, flags buggy AND patched (guard unrecognized)
)

// attemptShape is the full defect profile of one attempt: a semantic
// layer (is the checker's logic right?) and an independent syntax
// overlay (did the emission also break the grammar?). Keeping the layers
// independent means a repaired syntax error still leaves a semantically
// wrong checker wrong — repair fixes compilation, not understanding.
type attemptShape struct {
	semantic        attemptDefect
	syntax          bool
	syntaxUnfixable bool
}

// shapeFor decides, deterministically, what this iteration produces.
func (o *Oracle) shapeFor(c *vcs.Commit, pa *PatternAnalysis, plan *Plan, iter int) attemptShape {
	var sh attemptShape
	if o.capable(c) && pa.Accurate && plan.Accurate && o.succeedsAt(c, iter) {
		sh.semantic = defectNone
	} else {
		v := roll(o.key("defect", c.ID, fmt.Sprint(iter))...)
		switch {
		case v < o.Profile.APIHallucinationRate:
			sh.semantic = defectRuntime
		case flagBothCapable(pa.Facts.Kind) &&
			rollBelow(0.2, o.key("semkind", c.ID, fmt.Sprint(iter))...):
			// Semantic failures are mostly wrong-callee (misses both
			// versions, 173/207 in §5.1), sometimes missing-guard
			// (flags both, 34/207) where the pattern admits it.
			sh.semantic = defectMissingGuard
		default:
			sh.semantic = defectWrongCallee
		}
	}
	syntaxRate := o.Profile.SyntaxErrorRate
	if o.SingleStage {
		// Without a plan, the model free-writes more broken checkers.
		syntaxRate = min(0.95, syntaxRate*1.9)
	}
	sh.syntax = rollBelow(syntaxRate, o.key("syntax", c.ID, fmt.Sprint(iter))...)
	if sh.syntax {
		sh.syntaxUnfixable = rollBelow(o.Profile.UnfixableRate, o.key("unfixable", c.ID, fmt.Sprint(iter))...)
	}
	return sh
}

// flagBothCapable reports whether dropping the guard makes the checker
// flag both the buggy and the patched version (rather than accidentally
// staying valid through engine-level reasoning).
func flagBothCapable(k FixKind) bool {
	switch k {
	case FixAddNullCheck, FixTerminateBuffer, FixAddUnlockOnPath:
		return true
	}
	return false
}

// kindHasArgRules reports whether the pattern's DSL program contains an
// "arg N" clause a hallucinated index could corrupt.
func kindHasArgRules(k FixKind) bool {
	switch k {
	case FixMoveFreeLater, FixClearOrDropDupFree, FixFreeOnErrorPath,
		FixAddUnlockOnPath, FixTerminateBuffer, FixCheckSign, FixClampUserCopy,
		FixAddBoundBeforeMulAlloc:
		return true
	}
	return false
}

// ImplementChecker is the implementation stage: it renders the DSL
// program for this iteration, applying the attempt's defects.
func (o *Oracle) ImplementChecker(c *vcs.Commit, pa *PatternAnalysis, plan *Plan, iter int) (string, Usage) {
	prompt := ImplementPrompt(c, plan.Text())
	text := o.attemptText(c, pa, plan, iter, true)
	return text, Usage{InputTokens: EstimateTokens(prompt), OutputTokens: EstimateTokens(text), Calls: 1}
}

// attemptText renders the attempt's checker text; withSyntaxDefect
// controls whether the syntax overlay is materialized (the repair agent
// regenerates without it).
func (o *Oracle) attemptText(c *vcs.Commit, pa *PatternAnalysis, plan *Plan, iter int, withSyntaxDefect bool) string {
	sh := o.shapeFor(c, pa, plan, iter)
	facts := pa.Facts
	if sh.semantic == defectRuntime && !kindHasArgRules(facts.Kind) {
		// A hallucinated argument index has nowhere to land in this
		// pattern shape; the hallucination manifests as a wrong callee
		// instead.
		sh.semantic = defectWrongCallee
	}
	if sh.semantic == defectWrongCallee {
		facts.Anchor = wrongCallee(facts.Anchor)
		if facts.Consumer != "" {
			facts.Consumer = wrongCallee(facts.Consumer)
		}
		if facts.Release != "" {
			facts.Release = wrongCallee(facts.Release)
		}
		if facts.Derive != "" {
			facts.Derive = wrongCallee(facts.Derive)
		}
	}
	spec := o.specForFacts(c, facts, iter, sh.semantic)
	text := spec.String()
	if sh.semantic == defectRuntime {
		// Hallucinated argument index: compiles, crashes during analysis.
		text = strings.Replace(text, "arg 0", "arg 7", 1)
	}
	if sh.syntax && withSyntaxDefect {
		text = corruptSyntax(text, roll(o.key("corrupt", c.ID, fmt.Sprint(iter))...))
	}
	return text
}

// specForFacts builds the checker spec the model writes for the given
// facts. Optional robustness features are included only with
// EnhancementRate probability — first valid checkers are usually naive,
// and the refinement loop is what hardens them (paper §3.2).
func (o *Oracle) specForFacts(c *vcs.Commit, f DiffFacts, iter int, defect attemptDefect) *ckdsl.Spec {
	dropGuards := defect == defectMissingGuard
	enhanced := func(which string) bool {
		return rollBelow(o.Profile.EnhancementRate, o.key("enh", which, c.ID, fmt.Sprint(iter))...)
	}
	name := checkerName(c, f)
	spec := &ckdsl.Spec{
		Name:        name,
		BugTypeName: bugTypeFor(f.Kind),
		Description: fmt.Sprintf("synthesized from commit %s (%s)", c.ID, f.Kind),
	}
	switch f.Kind {
	case FixAddNullCheck:
		spec.TrackAlias = true
		spec.Sources = append(spec.Sources, ckdsl.SourceRule{Kind: ckdsl.SrcCallYields, Callee: f.Anchor, Yields: "nullable"})
		if !dropGuards {
			spec.Guards = append(spec.Guards, ckdsl.GuardRule{Kind: ckdsl.GuardNullCheck})
		}
		if enhanced("unwrap") {
			spec.Unwrap = []string{"unlikely", "likely"}
		}
		spec.Sinks = append(spec.Sinks, ckdsl.SinkRule{Kind: ckdsl.SinkDerefUnchecked,
			Message: fmt.Sprintf("%s() may return NULL and is dereferenced without a check", f.Anchor)})
	case FixMoveFreeLater:
		spec.Sources = append(spec.Sources, ckdsl.SourceRule{Kind: ckdsl.SrcCallFrees, Callee: f.Anchor, Arg: 0})
		if f.Derive != "" {
			spec.TrackAlias = true // derived-object tracking requires value identity
			spec.Sources = append(spec.Sources, ckdsl.SourceRule{Kind: ckdsl.SrcCallDerives, Callee: f.Derive, Arg: 0})
		} else if enhanced("alias") {
			spec.TrackAlias = true
		}
		spec.Sinks = append(spec.Sinks, ckdsl.SinkRule{Kind: ckdsl.SinkDerefFreed,
			Message: fmt.Sprintf("object used after %s()", f.Anchor)})
	case FixClearOrDropDupFree:
		// The few-shot example set includes a double-free checker with
		// an alias map (commit 4575962aeed6, §4), so double-free
		// checkers come out alias-tracking from the start.
		spec.TrackAlias = true
		spec.Sources = append(spec.Sources, ckdsl.SourceRule{Kind: ckdsl.SrcCallFrees, Callee: f.Anchor, Arg: 0})
		spec.Sinks = append(spec.Sinks, ckdsl.SinkRule{Kind: ckdsl.SinkCallArgFreed, Callee: f.Anchor, Arg: 0,
			Message: fmt.Sprintf("double %s() of the same object", f.Anchor)})
	case FixFreeOnErrorPath:
		spec.TrackAlias = true
		spec.Sources = append(spec.Sources, ckdsl.SourceRule{Kind: ckdsl.SrcCallYields, Callee: f.Anchor, Yields: "alloc"})
		if !dropGuards {
			spec.Guards = append(spec.Guards, ckdsl.GuardRule{Kind: ckdsl.GuardCallReleases, Callee: f.Release, Arg: 0})
		}
		spec.Sinks = append(spec.Sinks, ckdsl.SinkRule{Kind: ckdsl.SinkEndHeld, Holding: "alloc",
			Message: fmt.Sprintf("memory from %s() leaked on this path", f.Anchor)})
	case FixInitCleanupPtr:
		spec.Sources = append(spec.Sources, ckdsl.SourceRule{Kind: ckdsl.SrcDeclUninit, CleanupOnly: true})
		if defect == defectWrongCallee {
			// The classic misunderstanding: checking for reads of the
			// uninitialized variable instead of the cleanup-at-return
			// hazard. With the assignment guard this finds nothing in
			// either version (reads all happen after assignment).
			spec.Guards = append(spec.Guards, ckdsl.GuardRule{Kind: ckdsl.GuardAssignInit})
			spec.Sinks = append(spec.Sinks, ckdsl.SinkRule{Kind: ckdsl.SinkUseUninit,
				Message: "variable may be used uninitialized"})
		} else {
			if enhanced("assign-guard") && !dropGuards {
				spec.Guards = append(spec.Guards, ckdsl.GuardRule{Kind: ckdsl.GuardAssignInit})
			}
			spec.Sinks = append(spec.Sinks, ckdsl.SinkRule{Kind: ckdsl.SinkEndUninitCleanup,
				Message: "cleanup handler may run on an uninitialized pointer"})
		}
	case FixAddUnlockOnPath:
		spec.Sources = append(spec.Sources,
			ckdsl.SourceRule{Kind: ckdsl.SrcCallLocks, Callee: f.Anchor, Arg: 0})
		if !dropGuards {
			// The missing-guard failure mode here is forgetting to model
			// the releasing call, which makes the checker flag both the
			// buggy and the patched version.
			spec.Sources = append(spec.Sources,
				ckdsl.SourceRule{Kind: ckdsl.SrcCallUnlocks, Callee: f.Release, Arg: 0})
		}
		spec.Sinks = append(spec.Sinks,
			ckdsl.SinkRule{Kind: ckdsl.SinkEndHeld, Holding: "locked",
				Message: fmt.Sprintf("return without releasing the lock taken by %s()", f.Anchor)},
			ckdsl.SinkRule{Kind: ckdsl.SinkCallArgLocked, Callee: f.Anchor, Arg: 0,
				Message: "lock acquired twice"})
	case FixClampUserCopy:
		if enhanced("boundcheck") {
			spec.Guards = append(spec.Guards, ckdsl.GuardRule{Kind: ckdsl.GuardBoundCheck})
		}
		spec.Sinks = append(spec.Sinks, ckdsl.SinkRule{Kind: ckdsl.SinkCopyOverflow,
			Callee: f.Anchor, SizeArg: 2, BufArg: 0, Slack: 1,
			Message: "copy_from_user() may overflow the destination buffer"})
	case FixAddBoundBeforeMulAlloc:
		if enhanced("boundcheck") && !dropGuards {
			spec.Guards = append(spec.Guards, ckdsl.GuardRule{Kind: ckdsl.GuardBoundCheck})
		}
		spec.Sinks = append(spec.Sinks, ckdsl.SinkRule{Kind: ckdsl.SinkMulOverflow,
			Callee: f.Anchor, Arg: 0, Bits: 32,
			Message: fmt.Sprintf("size multiplication for %s() may overflow", f.Anchor)})
	case FixAddIndexBound:
		spec.TrackAlias = true
		spec.Sources = append(spec.Sources, ckdsl.SourceRule{Kind: ckdsl.SrcCallYields, Callee: f.Anchor, Yields: "taint"})
		if !dropGuards {
			spec.Guards = append(spec.Guards, ckdsl.GuardRule{Kind: ckdsl.GuardBoundCheck})
		}
		spec.Sinks = append(spec.Sinks, ckdsl.SinkRule{Kind: ckdsl.SinkIndexTainted,
			Message: fmt.Sprintf("index from %s() used without a bounds check", f.Anchor)})
	case FixTerminateBuffer:
		spec.Sources = append(spec.Sources, ckdsl.SourceRule{Kind: ckdsl.SrcCallWrites, Callee: f.Anchor, Arg: 0})
		if !dropGuards {
			spec.Guards = append(spec.Guards, ckdsl.GuardRule{Kind: ckdsl.GuardTerminate})
		}
		spec.Sinks = append(spec.Sinks, ckdsl.SinkRule{Kind: ckdsl.SinkCallArgUnterminated,
			Callee: f.Consumer, Arg: 0,
			Message: fmt.Sprintf("%s() on a buffer that may lack NUL termination", f.Consumer)})
	case FixCheckSign:
		// Recognizing helper-function bounds as sign guards is a subtle
		// piece of checker logic; first drafts almost never have it.
		if enhanced("sign-boundcheck") && enhanced("sign-boundcheck-2") && !dropGuards {
			spec.Guards = append(spec.Guards, ckdsl.GuardRule{Kind: ckdsl.GuardBoundCheck})
		}
		spec.Sinks = append(spec.Sinks, ckdsl.SinkRule{Kind: ckdsl.SinkCallArgNegative,
			Callee: f.Consumer, Arg: 0,
			Message: fmt.Sprintf("%s() result may be negative when passed to %s()", f.Anchor, f.Consumer)})
	default:
		// Confused analysis: emit a generic checker that compiles but
		// cannot match anything in the patch.
		spec.TrackAlias = true
		spec.Sources = append(spec.Sources, ckdsl.SourceRule{Kind: ckdsl.SrcCallYields, Callee: orUnknown(f.Anchor), Yields: "nullable"})
		spec.Guards = append(spec.Guards, ckdsl.GuardRule{Kind: ckdsl.GuardNullCheck})
		spec.Sinks = append(spec.Sinks, ckdsl.SinkRule{Kind: ckdsl.SinkDerefUnchecked, Message: "possible invalid use"})
	}
	return spec
}

func bugTypeFor(k FixKind) string {
	switch k.ClassOf() {
	case "NPD":
		return "Null-Pointer-Dereference"
	case "UBI":
		return "Use-Before-Initialization"
	case "Unknown":
		return "Null-Pointer-Dereference"
	default:
		return k.ClassOf()
	}
}

func checkerName(c *vcs.Commit, f DiffFacts) string {
	base := strings.ToLower(strings.ReplaceAll(f.Kind.ClassOf(), "-", "_"))
	anchor := strings.ReplaceAll(orUnknown(f.Anchor), "<unknown>", "unknown")
	return fmt.Sprintf("%s_%s_%s", base, anchor, c.ID[:6])
}

// corruptSyntax injects a realistic parse-breaking mistake. The chosen
// corruption always breaks the parse: variants that do not apply to this
// particular program fall back to dropping the closing brace.
func corruptSyntax(text string, v float64) string {
	out := text
	switch {
	case v < 0.25:
		out = strings.Replace(text, "source {", "sourze {", 1)
	case v < 0.5:
		out = strings.Replace(text, "sink {", "sink { emit-on", 1)
	case v < 0.75:
		out = text // fall through to brace drop
	default:
		out = strings.Replace(text, "yields", "yeilds", 1)
	}
	if out == text {
		if i := strings.LastIndex(text, "}"); i >= 0 {
			out = text[:i] + text[i+1:]
		}
	}
	return out
}

// RepairChecker is the syntax-repair agent: given the compiler error,
// it re-emits the checker; with probability RepairSkill a fixable
// syntax defect is gone (semantic defects survive — repair fixes
// compilation, not understanding, mirroring §3.1.3). Unfixable syntax
// defects come back corrupted no matter how many rounds are granted.
func (o *Oracle) RepairChecker(c *vcs.Commit, iter, attempt int, dsl, compileErr string) (string, Usage) {
	prompt := RepairPrompt(dsl, compileErr)
	pa, _ := o.AnalyzePattern(c, iter)
	plan, _ := o.SynthesizePlan(c, pa, iter)
	sh := o.shapeFor(c, pa, plan, iter)
	var text string
	fixed := !sh.syntaxUnfixable &&
		rollBelow(o.Profile.RepairSkill, o.key("repair", c.ID, fmt.Sprint(iter), fmt.Sprint(attempt))...)
	if fixed {
		text = o.attemptText(c, pa, plan, iter, false) // regenerated without the syntax corruption
	} else {
		// Unsuccessful repair: a different corruption of the same program.
		text = corruptSyntax(o.attemptText(c, pa, plan, iter, false),
			roll(o.key("recorrupt", c.ID, fmt.Sprint(iter), fmt.Sprint(attempt))...))
	}
	return text, Usage{InputTokens: EstimateTokens(prompt), OutputTokens: EstimateTokens(text), Calls: 1}
}

// RefineChecker is the refinement agent: it inspects the false-positive
// functions and applies a fix from its repertoire. FP idioms outside
// the repertoire (WARN_ON() checks, free-NULL-free sequences) go
// unrecognized and the spec comes back unchanged — those
// checkers end as the paper's refinement failures.
func (o *Oracle) RefineChecker(c *vcs.Commit, spec *ckdsl.Spec, fpSources []string, step int) (*ckdsl.Spec, Usage) {
	prompt := RefinePrompt(spec.String(), fpSources)
	out := *spec // shallow copy; slices replaced on change
	joined := strings.Join(fpSources, "\n")

	hasGuard := func(k ckdsl.GuardKind) bool {
		for _, g := range out.Guards {
			if g.Kind == k {
				return true
			}
		}
		return false
	}

	if strings.Contains(joined, "unlikely(") && len(out.Unwrap) == 0 {
		out.Unwrap = []string{"unlikely", "likely"}
	}
	if strings.Contains(joined, "__free(") && !hasGuard(ckdsl.GuardAssignInit) && hasUninitSource(&out) {
		out.Guards = append(append([]ckdsl.GuardRule{}, out.Guards...), ckdsl.GuardRule{Kind: ckdsl.GuardAssignInit})
	}
	if strings.Contains(joined, "] = 0;") && !hasGuard(ckdsl.GuardTerminate) && hasWritesSource(&out) {
		out.Guards = append(append([]ckdsl.GuardRule{}, out.Guards...), ckdsl.GuardRule{Kind: ckdsl.GuardTerminate})
	}
	if needsBoundGuard(&out) && !hasGuard(ckdsl.GuardBoundCheck) && containsComparisonGuard(joined) {
		out.Guards = append(append([]ckdsl.GuardRule{}, out.Guards...), ckdsl.GuardRule{Kind: ckdsl.GuardBoundCheck})
	}
	if !out.TrackAlias && strings.Contains(joined, "= kmalloc(") && hasFreesSource(&out) {
		// Freed-then-reallocated pointers demand value-identity tracking.
		out.TrackAlias = true
	}
	return &out, Usage{InputTokens: EstimateTokens(prompt), OutputTokens: EstimateTokens(out.String()), Calls: 1}
}

func hasUninitSource(s *ckdsl.Spec) bool {
	for _, src := range s.Sources {
		if src.Kind == ckdsl.SrcDeclUninit {
			return true
		}
	}
	return false
}

func hasWritesSource(s *ckdsl.Spec) bool {
	for _, src := range s.Sources {
		if src.Kind == ckdsl.SrcCallWrites {
			return true
		}
	}
	return false
}

func hasFreesSource(s *ckdsl.Spec) bool {
	for _, src := range s.Sources {
		if src.Kind == ckdsl.SrcCallFrees {
			return true
		}
	}
	return false
}

func needsBoundGuard(s *ckdsl.Spec) bool {
	for _, sk := range s.Sinks {
		switch sk.Kind {
		case ckdsl.SinkMulOverflow, ckdsl.SinkCopyOverflow, ckdsl.SinkCallArgNegative, ckdsl.SinkIndexTainted:
			return true
		}
	}
	return false
}

func containsComparisonGuard(src string) bool {
	return strings.Contains(src, " > ") || strings.Contains(src, " >= ") || strings.Contains(src, " < ")
}
