package vcs

import (
	"strings"
	"testing"
)

func mkCommit(class, subj string) *Commit {
	return &Commit{
		Subject: subj,
		File:    "drivers/spi/x.c",
		Class:   class,
		Before:  "int f(void)\n{\n\treturn 1;\n}\n",
		After:   "int f(void)\n{\n\treturn 2;\n}\n",
	}
}

func TestStoreAddGet(t *testing.T) {
	s := NewStore()
	c := s.Add(mkCommit("NPD", "fix a"))
	if c.ID == "" {
		t.Fatal("no id assigned")
	}
	if all := s.All(); len(all) != 1 || all[0] != c {
		t.Fatalf("All = %v, want [%v]", all, c)
	}
}

func TestStoreOrderAndClasses(t *testing.T) {
	s := NewStore()
	a := s.Add(mkCommit("NPD", "fix a"))
	b := s.Add(mkCommit("Misuse", "fix b"))
	c := s.Add(mkCommit("NPD", "fix c"))
	all := s.All()
	if len(all) != 3 || all[0] != a || all[1] != b || all[2] != c {
		t.Fatal("insertion order not preserved")
	}
	npd := s.ByClass("NPD")
	if len(npd) != 2 || npd[0] != a || npd[1] != c {
		t.Fatal("ByClass wrong")
	}
}

func TestCommitMessageAndDiff(t *testing.T) {
	c := mkCommit("NPD", "spi: fix null deref")
	c.Body = "A detailed explanation."
	msg := c.Message()
	if !strings.HasPrefix(msg, "spi: fix null deref\n\n") || !strings.Contains(msg, "detailed") {
		t.Errorf("message = %q", msg)
	}
	c.Body = ""
	if c.Message() != "spi: fix null deref" {
		t.Errorf("terse message = %q", c.Message())
	}
	d := c.Diff()
	if !strings.Contains(d, "-\treturn 1;") || !strings.Contains(d, "+\treturn 2;") {
		t.Errorf("diff = %s", d)
	}
}

func TestHashIDStable(t *testing.T) {
	a := HashID("x", "y")
	b := HashID("x", "y")
	c := HashID("x", "z")
	if a != b {
		t.Error("hash not stable")
	}
	if a == c {
		t.Error("hash collision on different input")
	}
	if len(a) != 12 {
		t.Errorf("id length = %d", len(a))
	}
	// Length-prefixing prevents concatenation ambiguity.
	if HashID("ab", "c") == HashID("a", "bc") {
		t.Error("ambiguous hashing")
	}
}
