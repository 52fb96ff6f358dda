package ckdsl

import (
	"strings"
	"testing"

	"knighter/internal/minic"
)

const flowLeakDSL = `checker fl_leak {
  bugtype "Memory-Leak"
  track aliases
  source { call "kmalloc" yields alloc }
  source { call "kzalloc" yields alloc }
  guard { call "kfree" releases arg 0 }
  sink { end-of-function holding alloc }
}`

const flowFreeDSL = `checker fl_dfree {
  bugtype "Double-Free"
  track aliases
  source { call "kfree" frees arg 0 }
  sink { call "kfree" arg 0 freed }
}`

// TestFlowReasons pins why each rule gives up, or that it does not, on
// one function per case. Some cases would be loud for another reason
// too; the reason pins which check fires first.
func TestFlowReasons(t *testing.T) {
	cases := []struct {
		dsl, name, body, want string
	}{
		{flowLeakDSL, "freed", "char *p = kmalloc(n);\n\tif (!p)\n\t\treturn -ENOMEM;\n\tkfree(p);\n\treturn 0;", ""},
		{flowLeakDSL, "null eq", "char *p = kmalloc(n);\n\tif (unlikely(p == NULL))\n\t\treturn -ENOMEM;\n\tkfree(p);\n\treturn 0;", ""},
		{flowLeakDSL, "null ne", "char *p;\n\tp = (char *)kzalloc(n);\n\tif (p != 0) {\n\t\tkfree(p);\n\t}\n\treturn 0;", ""},
		{flowLeakDSL, "null or", "char *p = kmalloc(n);\n\tchar *q = kmalloc(n);\n\tif (!p || !q) {\n\t\tkfree(p);\n\t\tkfree(q);\n\t\treturn -ENOMEM;\n\t}\n\tkfree(q);\n\tkfree(p);\n\treturn 0;", ""},
		{flowLeakDSL, "null and", "char *p = kmalloc(n);\n\tif (!p && n)\n\t\treturn -ENOMEM;\n\tkfree(p);\n\treturn 0;", ""},
		{flowLeakDSL, "returned", "char *p = kmalloc(n);\n\treturn p;", ""},
		{flowLeakDSL, "returned fresh", "return kmalloc(n);", ""},
		{flowLeakDSL, "passed fresh", "register_buf(kmalloc(n));\n\treturn 0;", ""},
		{flowLeakDSL, "stored fresh", "d->buf = kmalloc(n);\n\treturn 0;", ""},
		{flowLeakDSL, "stored in element", "char *p = kmalloc(n);\n\td->bufs[0] = p;\n\treturn 0;", ""},
		{flowLeakDSL, "loop freed", "int i;\n\tfor (i = 0; i < n; i++) {\n\t\tchar *p = kmalloc(n);\n\t\tkfree(p);\n\t}\n\treturn 0;", ""},
		{flowLeakDSL, "leaked", "char *p = kmalloc(n);\n\tif (!p)\n\t\treturn -ENOMEM;\n\treturn 0;", loudHeldAtReturn},
		{flowLeakDSL, "null on the wrong edge", "char *p = kmalloc(n);\n\tif (p)\n\t\treturn -ENOMEM;\n\tkfree(p);\n\treturn 0;", loudHeldAtReturn},
		{flowLeakDSL, "cond with a store", "char *p;\n\tif (!(p = kmalloc(n)))\n\t\treturn -ENOMEM;\n\tkfree(p);\n\treturn 0;", loudHeldAtReturn},
		{flowLeakDSL, "stored through a pointer", "char *p = kmalloc(n);\n\t*d = p;\n\treturn 0;", loudHeldAtReturn},
		{flowLeakDSL, "dropped", "kmalloc(n);\n\treturn 0;", loudUnbound},
		{flowLeakDSL, "in a ternary", "char *p = n ? kmalloc(n) : NULL;\n\tkfree(p);\n\treturn 0;", loudUnbound},
		{flowLeakDSL, "into an allocator", "char *p = kmalloc(kzalloc(n));\n\tkfree(p);\n\treturn 0;", loudUnbound},
		{flowLeakDSL, "stored fresh through a pointer", "*d = kmalloc(n);\n\treturn 0;", loudUnbound},
		{flowLeakDSL, "loop leaked", "int i;\n\tchar *p;\n\tfor (i = 0; i < n; i++)\n\t\tp = kmalloc(n);\n\tkfree(p);\n\treturn 0;", loudHeldAtReturn},
		{flowLeakDSL, "reallocated", "char *p;\nagain:\n\tp = kmalloc(n);\n\tif (n--)\n\t\tgoto again;\n\tkfree(p);\n\treturn 0;", loudRealloc},
		{flowLeakDSL, "overwritten", "char *p = kmalloc(n);\n\tp = NULL;\n\treturn 0;", loudOverwritten},
		{flowLeakDSL, "copy then overwritten", "char *p = kmalloc(n);\n\tchar *q = p;\n\tp = NULL;\n\tkfree(q);\n\treturn 0;", ""},
		{flowLeakDSL, "stepped", "char *p = kmalloc(n);\n\tp++;\n\treturn 0;", loudOverwritten},
		{flowLeakDSL, "unknown holder overwritten", "char *p;\n\tif (n)\n\t\tp = kmalloc(n);\n\telse\n\t\tp = kzalloc(n);\n\tp = NULL;\n\treturn 0;", loudOverwritten},
		{flowLeakDSL, "address", "char *p = kmalloc(n);\n\tchar **pp = &p;\n\tkfree(p);\n\treturn 0;", loudAddress},
		{flowLeakDSL, "declared twice", "char *p = kmalloc(n);\n\tkfree(p);\n\tif (n) {\n\t\tchar *p = kmalloc(n);\n\t\tkfree(p);\n\t}\n\treturn 0;", loudDeclared},
		{flowLeakDSL, "shadows a parameter", "char *n = kmalloc(4);\n\tkfree(n);\n\treturn 0;", loudDeclared},
		{flowLeakDSL, "declared on the way", "goto mid;\nagain:\n\tkfree(p);\n\treturn 0;\nmid:\n\t;\n\tchar *p = kmalloc(n);\n\tgoto again;", ""},
		{flowLeakDSL, "used before its declaration", "if (n)\n\t\tgoto out;\n\tchar *p = kmalloc(n);\n\tkfree(p);\n\treturn 0;\nout:\n\tp = NULL;\n\treturn 0;", loudUndeclared},
		{flowFreeDSL, "disjoint", "if (n)\n\t\tkfree(d);\n\telse\n\t\tkfree(d);\n\treturn 0;", ""},
		{flowFreeDSL, "sequence", "kfree(d);\n\tkfree(d);\n\treturn 0;", loudCallAfterCall},
		{flowFreeDSL, "nested", "kfree(wrap(kfree(d)));\n\treturn 0;", loudCallAfterCall},
		{flowFreeDSL, "same call", "kfree(d);\n\treturn 0;", ""},
		{flowFreeDSL, "loop", "while (n--)\n\t\tkfree(d);\n\treturn 0;", loudCallAfterCall},
		{flowFreeDSL, "branch then join", "if (n)\n\t\tkfree(d);\n\tkfree(d);\n\treturn 0;", loudCallAfterCall},
		{flowFreeDSL, "sizeof", "kfree(d);\n\treturn sizeof(kfree(d));", ""},
		{flowFreeDSL, "annotation", "if (unlikely(n))\n\t\tkfree(d);\n\treturn likely(n);", ""},
	}
	for _, c := range cases {
		ck, err := CompileSource(c.dsl)
		if err != nil {
			t.Fatal(err)
		}
		src := "int f(struct dev *d, int n)\n{\n\t" + c.body + "\n}\n"
		f, err := minic.ParseFile("flow.c", src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := ck.rule.why(f.Funcs[0]); got != c.want {
			t.Errorf("%s %s: %q, want %q\n%s", ck.spec.Name, c.name, got, c.want, strings.TrimSpace(src))
		}
	}
}

// TestQuietRuleShapes pins which specs have a rule, and that the memo
// key is the rule and its callee sets: revisions that differ elsewhere
// share it, and callee sets that differ do not.
func TestQuietRuleShapes(t *testing.T) {
	rule := func(src string) *quietRule {
		t.Helper()
		ck, err := CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		return ck.rule
	}
	leak, free := rule(flowLeakDSL), rule(flowFreeDSL)
	if leak == nil || leak.afterCall || free == nil || !free.afterCall {
		t.Fatalf("leak rule %+v, double-free rule %+v", leak, free)
	}
	revised := rule(strings.Replace(flowLeakDSL, "sink { end-of-function holding alloc }",
		`guard { nullcheck }
  sink { end-of-function holding alloc report "leak" }`, 1))
	if revised.key != leak.key {
		t.Errorf("a revision with the same callees has key %q, want %q", revised.key, leak.key)
	}
	if other := rule(strings.Replace(flowLeakDSL, `"kzalloc"`, `"vmalloc"`, 1)); other.key == leak.key {
		t.Errorf("other allocators share key %q", other.key)
	}
	for _, src := range []string{
		// A deref sink reads what a call rule cannot see.
		strings.Replace(flowFreeDSL, `sink { call "kfree" arg 0 freed }`, `sink { deref freed }`, 1),
		// A nullable source is no allocation.
		strings.Replace(flowLeakDSL, `call "kmalloc" yields alloc`, `call "kmalloc" yields nullable`, 1),
		// A lock held at the end is no allocation.
		`checker l {
  bugtype "Concurrency"
  source { call "spin_lock" locks arg 0 }
  sink { end-of-function holding locked }
}`,
	} {
		if r := rule(src); r != nil {
			t.Errorf("rule %+v for\n%s", r, src)
		}
	}
}
