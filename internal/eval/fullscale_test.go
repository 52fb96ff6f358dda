package eval

import (
	"testing"

	"knighter/internal/kernel"
	"knighter/internal/refine"
)

// TestFullScaleHeadlineNumbers regenerates the paper's headline numbers
// (Table 1's 39 valid checkers and its refinement split) at full corpus
// scale. It is the repository's end-to-end
// reproduction check; skipped under -short.
func TestFullScaleHeadlineNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale evaluation skipped in -short mode")
	}
	h, err := NewHarness(kernel.Config{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	t1 := h.RunTable1()

	// Table 1 headline: 39 valid / 22 invalid (paper: 39/22).
	if t1.ValidCount != 39 {
		t.Errorf("valid checkers = %d, want 39", t1.ValidCount)
	}
	invalid := 0
	fails := map[string]int{}
	for _, row := range t1.Rows {
		invalid += row.Invalid
		if row.Fail > 0 {
			fails[row.Class] = row.Fail
		}
	}
	if invalid != 22 {
		t.Errorf("invalid = %d, want 22", invalid)
	}
	// The two refinement failures land on the paper's classes.
	if fails[kernel.ClassNPD] != 1 || fails[kernel.ClassDoubleFree] != 1 || len(fails) != 2 {
		t.Errorf("refinement failures = %v, want {NPD:1, Double-Free:1}", fails)
	}
	// Per-class invalid counts must match Table 1 exactly (they are
	// pinned by the destiny table).
	wantInvalid := map[string]int{
		kernel.ClassNPD: 1, kernel.ClassIntOver: 3, kernel.ClassOOB: 2,
		kernel.ClassBufOver: 3, kernel.ClassMemLeak: 2, kernel.ClassUAF: 4,
		kernel.ClassDoubleFree: 1, kernel.ClassUBI: 1, kernel.ClassConcurrency: 2,
		kernel.ClassMisuse: 3,
	}
	for _, row := range t1.Rows {
		if row.Invalid != wantInvalid[row.Class] {
			t.Errorf("%s invalid = %d, want %d", row.Class, row.Invalid, wantInvalid[row.Class])
		}
	}

	// Table 2 / Fig 9: all 92 seeded bugs rediscovered with the exact
	// paper distributions.
	bugs := h.RunBugDetection(t1.Outcomes)
	total, confirmed, fixed, _, cve := bugs.Table2()
	if total != 92 {
		t.Fatalf("bugs found = %d, want 92", total)
	}
	if confirmed < 70 || confirmed > 88 || fixed > confirmed || cve < 20 || cve > 40 {
		t.Errorf("statuses: confirmed=%d fixed=%d cve=%d", confirmed, fixed, cve)
	}
	if fp := bugs.FPRate(); fp < 0.2 || fp > 0.45 {
		t.Errorf("FP rate = %.2f, want near 0.32", fp)
	}
	_, hand, auto := bugs.Fig9a()
	if hand[kernel.ClassNPD] != 24 || auto[kernel.ClassNPD] != 30 {
		t.Errorf("NPD split = %d/%d, want 24/30", hand[kernel.ClassNPD], auto[kernel.ClassNPD])
	}
	subs, counts := bugs.Fig9b()
	if subs[0] != "drivers" || counts["drivers"] != 67 {
		t.Errorf("drivers = %d, want 67", counts["drivers"])
	}

	// Refinement reached plausibility for most initially-implausible
	// checkers (paper: 11 of 13).
	refinedOrFailed := 0
	for _, so := range t1.Outcomes {
		if so.Refine != nil && so.Refine.Disposition != refine.DirectPlausible {
			refinedOrFailed++
		}
	}
	if t1.RefinedOK < refinedOrFailed-3 {
		t.Errorf("refined %d of %d non-direct checkers", t1.RefinedOK, refinedOrFailed)
	}
}
