package eval

import (
	"fmt"
	"math/rand"
	"strings"

	"knighter/internal/kernel"
	"knighter/internal/llm"
	"knighter/internal/synth"
	"knighter/internal/vcs"
)

// AblationRow is one configuration row of paper Table 3.
type AblationRow struct {
	Variant  string
	Valid    int
	Syntax   int
	Runtime  int
	Semantic int
	Usage    llm.Usage
}

// AblationResult reproduces Table 3 (§5.4.2).
type AblationResult struct {
	Sample []*vcs.Commit
	Rows   []AblationRow
}

// SampleAblationCommits draws 2 commits per bug type with the given seed
// (the paper uses seed zero).
func SampleAblationCommits(store *vcs.Store, seed int64) []*vcs.Commit {
	r := rand.New(rand.NewSource(seed))
	var out []*vcs.Commit
	for _, cls := range kernel.AllClasses {
		commits := store.ByClass(cls)
		idx := r.Perm(len(commits))
		n := 2
		if len(idx) < n {
			n = len(idx)
		}
		for i := 0; i < n; i++ {
			out = append(out, commits[idx[i]])
		}
	}
	return out
}

// RunAblation evaluates every Table 3 configuration on the 20-commit
// sample: the default multi-stage pipeline, the single-stage variant,
// RAG-retrieved examples, and the alternative model backends.
func (h *Harness) RunAblation() *AblationResult {
	sample := SampleAblationCommits(h.Hand, 0)
	res := &AblationResult{Sample: sample}

	variants := []struct {
		name  string
		model *llm.Oracle
	}{
		{"Default", llm.NewOracle(llm.O3Mini)},
		{"W/o multi-stage", &llm.Oracle{Profile: llm.O3Mini, SingleStage: true}},
		{"W/ RAG", &llm.Oracle{Profile: llm.O3Mini, RAG: true, Namespace: "rag"}},
		{"W/ GPT-4o", llm.NewOracle(llm.GPT4o)},
		{"W/ DeepSeek-R1", llm.NewOracle(llm.DeepSeekR1)},
		{"W/ Gemini-2-flash", llm.NewOracle(llm.Gemini2Flash)},
	}
	for _, v := range variants {
		row := AblationRow{Variant: v.name}
		pipe := synth.NewPipeline(v.model, synth.Options{})
		for _, c := range sample {
			out := pipe.GenChecker(c)
			row.Usage.Add(out.Usage)
			if out.Valid {
				row.Valid++
			}
			for _, f := range out.Failed {
				switch f.Symptom {
				case synth.SymptomCompile:
					row.Syntax++
				case synth.SymptomRuntime:
					row.Runtime++
				default:
					row.Semantic++
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render formats the result as the paper's Table 3.
func (r *AblationResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 3: Ablation study results (20-commit sample, 2 per bug type, seed 0).\n\n")
	fmt.Fprintf(&sb, "%-20s %6s | %7s %8s %10s | %10s\n",
		"Variants", "Valid", "Syntax", "Runtime", "Semantics", "Tokens(M)")
	sb.WriteString(strings.Repeat("-", 72) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-20s %6d | %7d %8d %10d | %10.2f\n",
			row.Variant, row.Valid, row.Syntax, row.Runtime, row.Semantic,
			float64(row.Usage.InputTokens+row.Usage.OutputTokens)/1e6)
	}
	return sb.String()
}
