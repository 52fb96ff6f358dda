package ckdsl

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// specCallees are the callees randomSpec draws from when a test has no
// function in mind.
var specCallees = []string{"kzalloc", "devm_kzalloc", "kfree", "spin_lock", "spin_unlock", "copy_from_user"}

// randomSpec generates a structurally valid Spec whose sinks always have
// matching sources (so Compile accepts it), naming the given callees.
func randomSpec(r *rand.Rand, callees []string) *Spec {
	s := &Spec{
		Name:        "gen_" + string(rune('a'+r.Intn(26))) + string(rune('a'+r.Intn(26))),
		BugTypeName: []string{"Null-Pointer-Dereference", "Use-After-Free", "Memory-Leak", "Misuse"}[r.Intn(4)],
		TrackAlias:  r.Intn(2) == 0,
	}
	if r.Intn(3) == 0 {
		s.Description = "generated spec"
	}
	if r.Intn(3) == 0 {
		s.Unwrap = []string{"unlikely", "likely"}
	}
	callee := func() string { return callees[r.Intn(len(callees))] }

	// Choose one coherent source/sink family per spec.
	switch r.Intn(8) {
	case 0: // nullable
		s.Sources = append(s.Sources, SourceRule{Kind: SrcCallYields, Callee: callee(), Yields: "nullable"})
		s.Guards = append(s.Guards, GuardRule{Kind: GuardNullCheck})
		s.Sinks = append(s.Sinks, SinkRule{Kind: SinkDerefUnchecked, Message: "m"})
	case 1: // freed
		s.Sources = append(s.Sources, SourceRule{Kind: SrcCallFrees, Callee: callee(), Arg: r.Intn(2)})
		if r.Intn(2) == 0 {
			s.Sources = append(s.Sources, SourceRule{Kind: SrcCallDerives, Callee: callee(), Arg: 0})
		}
		s.Sinks = append(s.Sinks, SinkRule{Kind: SinkDerefFreed})
		if r.Intn(2) == 0 {
			s.Sinks = append(s.Sinks, SinkRule{Kind: SinkCallArgFreed, Callee: callee(), Arg: 0})
		}
		if r.Intn(3) == 0 { // call sinks only: a call-after-call (Rule A) shape
			s.Sinks = []SinkRule{{Kind: SinkCallArgFreed, Callee: callee(), Arg: r.Intn(2)}}
		}
	case 2: // alloc, a may-still-hold (Rule B) shape
		s.Sources = append(s.Sources, SourceRule{Kind: SrcCallYields, Callee: callee(), Yields: "alloc"})
		s.Guards = append(s.Guards, GuardRule{Kind: GuardCallReleases, Callee: "kfree", Arg: 0})
		s.Sinks = append(s.Sinks, SinkRule{Kind: SinkEndHeld, Holding: "alloc", Message: "leak"})
	case 3: // locks
		s.Sources = append(s.Sources,
			SourceRule{Kind: SrcCallLocks, Callee: "spin_lock", Arg: 0},
			SourceRule{Kind: SrcCallUnlocks, Callee: "spin_unlock", Arg: 0})
		s.Sinks = append(s.Sinks,
			SinkRule{Kind: SinkEndHeld, Holding: "locked"},
			SinkRule{Kind: SinkCallArgLocked, Callee: "spin_lock", Arg: 0})
		switch r.Intn(3) { // call sinks only: Rule A shapes
		case 0:
			s.Sinks = s.Sinks[1:]
		case 1:
			s.Sources = []SourceRule{{Kind: SrcCallWrites, Callee: callee(), Arg: r.Intn(2)}}
			s.Guards = []GuardRule{{Kind: GuardTerminate}}
			s.Sinks = []SinkRule{{Kind: SinkCallArgUnterminated, Callee: callee(), Arg: r.Intn(2)}}
		}
	case 4: // uninit
		s.Sources = append(s.Sources, SourceRule{Kind: SrcDeclUninit, CleanupOnly: r.Intn(2) == 0})
		s.Guards = append(s.Guards, GuardRule{Kind: GuardAssignInit})
		if r.Intn(2) == 0 {
			s.Sinks = append(s.Sinks, SinkRule{Kind: SinkEndUninitCleanup})
		} else {
			s.Sinks = append(s.Sinks, SinkRule{Kind: SinkUseUninit})
		}
	case 5: // constant indexes need no sources
		s.Sinks = append(s.Sinks, SinkRule{Kind: SinkIndexConstOOB})
	case 6: // taint
		s.Sources = append(s.Sources, SourceRule{Kind: SrcCallYields, Callee: callee(), Yields: "taint"})
		s.Guards = append(s.Guards, GuardRule{Kind: GuardBoundCheck})
		s.Sinks = append(s.Sinks, SinkRule{Kind: SinkIndexTainted})
	default: // range sinks need no sources
		if r.Intn(2) == 0 {
			s.Sinks = append(s.Sinks, SinkRule{Kind: SinkMulOverflow, Callee: callee(), Arg: r.Intn(4), Bits: 32})
		} else {
			s.Sinks = append(s.Sinks, SinkRule{Kind: SinkCopyOverflow, Callee: "copy_from_user", SizeArg: 2, BufArg: 0, Slack: 1})
		}
		if r.Intn(2) == 0 {
			s.Guards = append(s.Guards, GuardRule{Kind: GuardBoundCheck})
		}
	}
	return s
}

// Property: String -> Parse -> String is a fixed point and the reparsed
// spec compiles whenever the original did.
func TestSpecPrintParseRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s1 := randomSpec(r, specCallees)
		text := s1.String()
		s2, err := Parse(text)
		if err != nil {
			t.Logf("parse failed: %v\n%s", err, text)
			return false
		}
		if s2.String() != text {
			t.Logf("round trip not stable:\n%s\nvs\n%s", text, s2.String())
			return false
		}
		_, err1 := Compile(s1)
		_, err2 := Compile(s2)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("compile disagreement: %v vs %v", err1, err2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: LineCount is positive and consistent with the rendered text.
func TestSpecLineCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSpec(r, specCallees)
		n := s.LineCount()
		return n >= 4 && n <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: capabilities are stable under print/parse round trips.
func TestCapabilitiesStableUnderRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s1 := randomSpec(r, specCallees)
		s2, err := Parse(s1.String())
		if err != nil {
			return false
		}
		return s1.Capabilities() == s2.Capabilities()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
