package patch

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDiffBasic(t *testing.T) {
	a := "line1\nline2\nline3\n"
	b := "line1\nline2 changed\nline3\n"
	d := Diff("f.c", "f.c", a, b, 3)
	if !strings.Contains(d, "-line2\n") || !strings.Contains(d, "+line2 changed\n") {
		t.Errorf("diff:\n%s", d)
	}
	add, rem := len(AddedLines(d)), len(RemovedLines(d))
	if add != 1 || rem != 1 {
		t.Errorf("stats = +%d -%d", add, rem)
	}
}

func TestDiffIdentical(t *testing.T) {
	if d := Diff("f.c", "f.c", "same\n", "same\n", 3); d != "" {
		t.Errorf("identical inputs produced a diff:\n%s", d)
	}
}

func TestDiffPureInsertion(t *testing.T) {
	a := "int f(void)\n{\n\tp = alloc();\n\tuse(p);\n}\n"
	b := "int f(void)\n{\n\tp = alloc();\n\tif (!p)\n\t\treturn -ENOMEM;\n\tuse(p);\n}\n"
	d := Diff("x.c", "x.c", a, b, 3)
	add, rem := len(AddedLines(d)), len(RemovedLines(d))
	if add != 2 || rem != 0 {
		t.Errorf("stats = +%d -%d, want +2 -0\n%s", add, rem, d)
	}
	added := AddedLines(d)
	if len(added) != 2 || !strings.Contains(added[0], "if (!p)") {
		t.Errorf("added = %q", added)
	}
	if len(RemovedLines(d)) != 0 {
		t.Errorf("removed = %q", RemovedLines(d))
	}
}

func TestDiffContextWindow(t *testing.T) {
	var a, b strings.Builder
	for i := 0; i < 40; i++ {
		a.WriteString("ctx\n")
		b.WriteString("ctx\n")
	}
	b.WriteString("tail\n")
	d := Diff("f", "f", a.String(), b.String(), 2)
	// Only 2 context lines + 1 added line should appear.
	lines := strings.Split(strings.TrimSpace(d), "\n")
	// header(2) + hunk(1) + 2 ctx + 1 add = 6
	if len(lines) != 6 {
		t.Errorf("lines = %d, want 6:\n%s", len(lines), d)
	}
}

func TestDiffMultipleHunks(t *testing.T) {
	var al, bl []string
	for i := 0; i < 30; i++ {
		al = append(al, "same")
		bl = append(bl, "same")
	}
	al[2] = "old-head"
	bl[2] = "new-head"
	al[27] = "old-tail"
	bl[27] = "new-tail"
	d := Diff("f", "f", strings.Join(al, "\n")+"\n", strings.Join(bl, "\n")+"\n", 2)
	hunks := 0
	for _, line := range strings.Split(d, "\n") {
		if strings.HasPrefix(line, "@@") {
			hunks++
		}
	}
	if hunks != 2 {
		t.Errorf("want 2 hunks, got %d:\n%s", hunks, d)
	}
}

// Property: the diff reconstructs b when applied conceptually — i.e. the
// equal+added lines in order equal b's lines, and equal+removed equal a's.
func TestDiffReconstruction(t *testing.T) {
	f := func(ops []uint8) bool {
		if len(ops) > 30 {
			ops = ops[:30]
		}
		words := []string{"alpha", "beta", "gamma", "delta"}
		var a, b []string
		for i, op := range ops {
			w := words[int(op)%len(words)]
			switch op % 3 {
			case 0:
				a = append(a, w)
				b = append(b, w)
			case 1:
				a = append(a, w+"-old")
			case 2:
				b = append(b, w+"-new")
			}
			_ = i
		}
		at := strings.Join(a, "\n") + "\n"
		bt := strings.Join(b, "\n") + "\n"
		if len(a) == 0 {
			at = ""
		}
		if len(b) == 0 {
			bt = ""
		}
		d := Diff("f", "f", at, bt, 1000) // full context
		if d == "" {
			return at == bt
		}
		var ra, rb []string
		for _, line := range strings.Split(d, "\n") {
			switch {
			case strings.HasPrefix(line, "--- "), strings.HasPrefix(line, "+++ "),
				strings.HasPrefix(line, "@@"), line == "":
			case strings.HasPrefix(line, "+"):
				rb = append(rb, line[1:])
			case strings.HasPrefix(line, "-"):
				ra = append(ra, line[1:])
			case strings.HasPrefix(line, " "):
				ra = append(ra, line[1:])
				rb = append(rb, line[1:])
			}
		}
		return strings.Join(ra, "\n") == strings.Join(a, "\n") &&
			strings.Join(rb, "\n") == strings.Join(b, "\n")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
