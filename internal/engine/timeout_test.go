package engine

import (
	"strings"
	"testing"
	"time"

	"knighter/internal/checker"
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

func TestTimeoutTruncatesAndFlags(t *testing.T) {
	f := parse(t, timeoutSrc)

	full := AnalyzeFunc(f, f.Funcs[0], Options{})
	if full.TimedOut {
		t.Fatal("unbounded analysis flagged as timed out")
	}
	if full.Paths == 0 {
		t.Fatal("unbounded analysis explored no paths")
	}

	// A 1ns budget is always exceeded by the first deadline check, so
	// the result must come back truncated and flagged, regardless of
	// machine speed.
	cut := AnalyzeFunc(f, f.Funcs[0], Options{Timeout: time.Nanosecond})
	if !cut.TimedOut || !cut.Truncated {
		t.Fatalf("TimedOut=%v Truncated=%v, want both true", cut.TimedOut, cut.Truncated)
	}
	if cut.Steps >= full.Steps {
		t.Fatalf("timed-out analysis did %d steps, full analysis %d", cut.Steps, full.Steps)
	}
}

// TestHardCancellationMidBlock pins the interruptible-analysis
// guarantee: a single enormous straight-line block is ONE frame, so the
// frame-level deadline check in run() sees it only at entry — the
// eval-level check must abort it mid-block. Without hard cancellation
// this function runs every statement to completion and comes back
// without the TimedOut flag.
func TestHardCancellationMidBlock(t *testing.T) {
	var b strings.Builder
	b.WriteString("int grind(int a)\n{\n\tint x = 0;\n")
	for i := 0; i < 120000; i++ {
		b.WriteString("\tx = x + a;\n")
	}
	b.WriteString("\treturn x;\n}\n")
	f := parse(t, b.String())

	// Unbounded: the whole block executes, no spurious aborts.
	full := AnalyzeFunc(f, f.Funcs[0], Options{})
	if full.TimedOut || full.Truncated {
		t.Fatalf("unbounded analysis aborted: TimedOut=%v Truncated=%v", full.TimedOut, full.Truncated)
	}

	// A 2ms budget expires while the block is still executing (120k
	// statements cannot finish that fast), long after the only
	// frame-level check already passed.
	start := time.Now()
	cut := AnalyzeFunc(f, f.Funcs[0], Options{Timeout: 2 * time.Millisecond})
	elapsed := time.Since(start)
	if !cut.TimedOut || !cut.Truncated {
		t.Fatalf("TimedOut=%v Truncated=%v, want both true (mid-block cancellation)", cut.TimedOut, cut.Truncated)
	}
	// Generous bound: the abort must land near the budget, not after the
	// block drains (the unbounded run above takes far longer than this).
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, budget was 2ms", elapsed)
	}
	if len(cut.RuntimeErrs) != 0 {
		t.Fatalf("timeout recorded as a checker crash: %v", cut.RuntimeErrs)
	}
}

func TestTimeoutExcludedFromFingerprint(t *testing.T) {
	a := Options{}.Fingerprint()
	b := Options{Timeout: time.Second}.Fingerprint()
	if a != b {
		t.Fatal("Timeout changed the engine fingerprint; timed-out results are uncacheable, so the bound must not fragment the cache")
	}
}

func TestTimeoutSurvivesMerge(t *testing.T) {
	r := &Result{}
	r.Merge(&Result{TimedOut: true})
	if !r.TimedOut {
		t.Fatal("Merge dropped TimedOut")
	}
}

// TestRiderKeepsItsOwnBudget: Options.Timeout bounds each rider's
// analysis, not the call. A rider analyzed beside one whose checker
// stalls past the budget gets exactly its solo result.
func TestRiderKeepsItsOwnBudget(t *testing.T) {
	f := parse(t, "int grind(int a)\n{\n\tint x = 0;\n"+strings.Repeat("\tx = x + a;\n", 300)+"\treturn x;\n}\n")
	fn := f.Funcs[0]
	st := &staller{budget: 50 * time.Millisecond}
	opts := Options{Timeout: st.budget}
	res := AnalyzeFuncEach(f, fn, nil, [][]checker.Checker{{st}, {siteReporter{}}}, opts)
	if !st.stalled || !res[0].TimedOut {
		t.Fatalf("stalled=%v TimedOut=%v: the staller's own analysis should run out of its budget", st.stalled, res[0].TimedOut)
	}
	opts.Checkers = []checker.Checker{siteReporter{}}
	solo := AnalyzeFunc(f, fn, opts)
	if solo.TimedOut {
		t.Fatal("the solo analysis ran out of its budget: the test's budget is too small for this machine")
	}
	if render(t, res[1]) != render(t, solo) {
		t.Errorf("rider beside a staller differs from its solo analysis: TimedOut=%v Steps=%d, %d reports; solo TimedOut=%v Steps=%d, %d reports",
			res[1].TimedOut, res[1].Steps, len(res[1].Reports), solo.TimedOut, solo.Steps, len(solo.Reports))
	}
}
