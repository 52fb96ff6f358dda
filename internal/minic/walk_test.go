package minic

import (
	"strings"
	"testing"
)

// TestFootprintCallShapes pins what a footprint records of each call:
// the callee, the fewest arguments of its call events and where they
// hold a product, as Calls and MulAt answer for them.
func TestFootprintCallShapes(t *testing.T) {
	wide := "g(" + strings.Repeat("a, ", 64) + "a * b);" // a product at argument 64 of 65
	cases := []struct {
		body  string
		name  string
		arg   int
		calls bool
		mul   bool
	}{
		{"g(a * b, c);", "g", 0, true, true},
		{"g((a * b), c);", "g", 0, true, true},
		{"g(((a * b)), c);", "g", 0, true, true},
		{"g((long)(a * b), c);", "g", 0, true, false}, // a cast around a product is no product
		{"g(a + b, c);", "g", 0, true, false},
		{"g(a * b, c);", "g", 1, true, false},
		{"g(a, b);", "g", 2, true, true}, // too few arguments: reading one panics
		{"g();", "g", 0, true, true},
		{"g(a);", "g", -1, true, true},
		{"g(a, b); g(a, b * c);", "g", 0, true, false},
		{"g(a, b); g(a, b * c);", "g", 1, true, true},
		{"g(a, b, c); g(a);", "g", 1, true, true}, // the fewest arguments of any call
		{"g(h(a * b), c);", "h", 0, true, true},   // calls nested in arguments
		{"g(h(a * b), c);", "g", 0, true, false},
		{"x = sizeof(h(a * b));", "h", 0, true, true}, // and inside sizeof
		{"if (likely(a * b)) return;", "likely", 0, false, false},
		{"x = likely(a * b);", "likely", 0, true, false}, // bound, but no call event
		{"x = likely(a * b, c);", "likely", 0, true, true},
		{"g(a * b);", "nope", 0, false, false},
		{wide, "g", 62, true, false},
		{wide, "g", 63, true, true}, // bit 63 stands for every argument from 63 on
		{wide, "g", 64, true, true},
		{wide, "g", 65, true, true},
	}
	for _, c := range cases {
		f, err := ParseFile("fp.c", "int f(int a, int b, int c)\n{\n\tint x;\n\t"+c.body+"\n\treturn 0;\n}\n")
		if err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		var fp Footprint
		fp.Reset(f.Funcs[0])
		if got := fp.Calls(c.name); got != c.calls {
			t.Errorf("%s: Calls(%q) = %v, want %v", c.body, c.name, got, c.calls)
		}
		if got := fp.MulAt(c.name, c.arg); got != c.mul {
			t.Errorf("%s: MulAt(%q, %d) = %v, want %v", c.body, c.name, c.arg, got, c.mul)
		}
	}
}

// TestFootprintArity pins the fewest arguments recorded per callee, and a
// callee that is only bound.
func TestFootprintArity(t *testing.T) {
	f, err := ParseFile("fp.c", "int f(int a)\n{\n\tint *p = likely(a);\n\tg(a, a);\n\th();\n\tg(a);\n\treturn 0;\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	var fp Footprint
	fp.Reset(f.Funcs[0])
	want := map[string]int{"likely": noCall, "g": 1, "h": 0}
	if len(fp.Callees) != len(want) || len(fp.shapes) != len(fp.Callees) {
		t.Fatalf("callees %v, %d shapes, want %v", fp.Callees, len(fp.shapes), want)
	}
	for i, name := range fp.Callees {
		if got := fp.shapes[i].minArgs; got != want[name] {
			t.Errorf("%s: fewest arguments %d, want %d", name, got, want[name])
		}
	}
}

// TestFootprintVerdicts pins the verdict memo: a key answers what was
// stored under an equal key, even one built separately; Reset drops
// every verdict; and past maxVerdicts keys a new one is not kept.
func TestFootprintVerdicts(t *testing.T) {
	f, err := ParseFile("fp.c", "int f(int a)\n{\n\treturn g(a);\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	var fp Footprint
	fp.Reset(f.Funcs[0])
	a, b := any("A\x00kfree"), any(strings.Repeat("B", 2))
	if _, ok := fp.Verdict(a); ok {
		t.Fatal("a fresh footprint has a verdict")
	}
	fp.SetVerdict(a, true)
	fp.SetVerdict(b, false)
	if v, ok := fp.Verdict(any(strings.Join([]string{"A", "kfree"}, "\x00"))); !v || !ok {
		t.Fatalf("an equal key built apart: %v, %v", v, ok)
	}
	if v, ok := fp.Verdict(b); v || !ok {
		t.Fatalf("second key: %v, %v", v, ok)
	}
	fp.Reset(f.Funcs[0])
	if _, ok := fp.Verdict(a); ok {
		t.Fatal("Reset kept a verdict")
	}
	for i := 0; i < maxVerdicts+1; i++ {
		fp.SetVerdict(any(strings.Repeat("k", i+1)), true)
	}
	if _, ok := fp.Verdict(any(strings.Repeat("k", maxVerdicts))); !ok {
		t.Fatal("the last key within the bound is not kept")
	}
	if _, ok := fp.Verdict(any(strings.Repeat("k", maxVerdicts+1))); ok {
		t.Fatal("a key past the bound is kept")
	}
}
