package store

import (
	"testing"
)

// fkey builds a key with an explicit function hash and checker
// fingerprint, so tests can lay out entries across both axes.
func fkey(funcHash, ckFP string) Key {
	return Key{FuncHash: funcHash, CheckerFP: ckFP, EngineFP: "eng"}
}

func TestMemoryInvalidateFuncDropsAllCheckersOfThatFunc(t *testing.T) {
	m := NewMemory(0)
	m.Put(bg, fkey("fA", "ck1"), result("a1"))
	m.Put(bg, fkey("fA", "ck2"), result("a2"))
	m.Put(bg, fkey("fB", "ck1"), result("b1"))

	if n := m.InvalidateFuncs([]string{"fA"}); n != 2 {
		t.Fatalf("invalidated %d entries, want 2", n)
	}
	if _, ok := m.Get(bg, fkey("fA", "ck1")); ok {
		t.Fatal("fA/ck1 survived invalidation")
	}
	if _, ok := m.Get(bg, fkey("fA", "ck2")); ok {
		t.Fatal("fA/ck2 survived invalidation")
	}
	if _, ok := m.Get(bg, fkey("fB", "ck1")); !ok {
		t.Fatal("fB/ck1 dropped by unrelated invalidation")
	}
	s := m.Stats()
	if s.Invalidated != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if n := m.InvalidateFuncs([]string{"no-such-hash"}); n != 0 {
		t.Fatalf("invalidating an unknown hash dropped %d entries", n)
	}
}

func TestMemoryEvictionMaintainsFuncIndex(t *testing.T) {
	m := NewMemory(1) // one-byte budget: only the newest entry survives
	m.Put(bg, fkey("fA", "ck1"), result("a"))
	m.Put(bg, fkey("fB", "ck1"), result("b")) // evicts fA
	if n := m.InvalidateFuncs([]string{"fA"}); n != 0 {
		t.Fatalf("evicted entry still indexed: %d", n)
	}
	if n := m.InvalidateFuncs([]string{"fB"}); n != 1 {
		t.Fatalf("live entry not indexed: %d", n)
	}
}
