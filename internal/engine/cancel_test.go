package engine

import (
	"context"
	"strings"
	"testing"
	"time"
)

const timeoutSrc = `
int work(int n)
{
	int acc = 0;
	int i = 0;
	while (i < n) {
		if (acc > 100) {
			acc = acc - 1;
		} else {
			acc = acc + 2;
		}
		i = i + 1;
	}
	return acc;
}
`

// TestCanceledContextAbortsImmediately: a context canceled before the
// call yields a flagged, truncated result without building the CFG.
func TestCanceledContextAbortsImmediately(t *testing.T) {
	f := parse(t, timeoutSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := AnalyzeFunc(f, f.Funcs[0], Options{Ctx: ctx})
	if !res.Canceled || !res.Truncated {
		t.Fatalf("Canceled=%v Truncated=%v, want both true", res.Canceled, res.Truncated)
	}
	if res.Steps != 0 {
		t.Fatalf("pre-canceled analysis did %d steps", res.Steps)
	}
}

// TestCancellationMidBlock pins the interruptible-analysis guarantee:
// one enormous straight-line block is a single frame, so the frame-level
// check in run() sees it only at entry, and only the eval-level amortized
// check can see a cancellation that arrives mid-block. Without it this
// function runs every statement to completion and comes back without
// the Canceled flag.
func TestCancellationMidBlock(t *testing.T) {
	var b strings.Builder
	b.WriteString("int grind(int a)\n{\n\tint x = 0;\n")
	for i := 0; i < 120000; i++ {
		b.WriteString("\tx = x + a;\n")
	}
	b.WriteString("\treturn x;\n}\n")
	f := parse(t, b.String())

	// An un-canceled context changes nothing.
	full := AnalyzeFunc(f, f.Funcs[0], Options{Ctx: context.Background()})
	if full.Canceled || full.Truncated {
		t.Fatalf("live context aborted analysis: Canceled=%v Truncated=%v", full.Canceled, full.Truncated)
	}

	// Cancel 2ms in: 120k statements cannot finish that fast, so the
	// abort must land mid-block via the evaluator's amortized check.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	cut := AnalyzeFunc(f, f.Funcs[0], Options{Ctx: ctx})
	elapsed := time.Since(start)
	if !cut.Canceled || !cut.Truncated {
		t.Fatalf("Canceled=%v Truncated=%v, want both true (mid-block cancellation)", cut.Canceled, cut.Truncated)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if len(cut.RuntimeErrs) != 0 {
		t.Fatalf("cancellation recorded as a checker crash: %v", cut.RuntimeErrs)
	}
}

// TestCtxExcludedFromFingerprint: the context is an operational guard —
// it must not fragment the cache key space.
func TestCtxExcludedFromFingerprint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plain := Options{}
	withCtx := Options{Ctx: ctx}
	if plain.Fingerprint() != withCtx.Fingerprint() {
		t.Fatal("Ctx changed the engine fingerprint")
	}
}

// TestCanceledSurvivesMerge: the flag must propagate, or a canceled
// per-function result could be folded into a file result that looks
// complete.
func TestCanceledSurvivesMerge(t *testing.T) {
	r := &Result{}
	r.Merge(&Result{Canceled: true})
	if !r.Canceled {
		t.Fatal("Merge dropped Canceled")
	}
}
