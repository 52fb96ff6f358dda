package cfg

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"knighter/internal/kernel"
	"knighter/internal/minic"
)

// seedCorpus is the scale-0.1 corpus.
var seedCorpus = sync.OnceValue(func() *kernel.Corpus {
	return kernel.Generate(kernel.Config{Seed: 1, Scale: 0.1})
})

// seedFuncs is every function of the scale-0.1 corpus, parsed.
var seedFuncs = sync.OnceValue(func() []*minic.FuncDecl {
	var fns []*minic.FuncDecl
	for _, sf := range seedCorpus().Files {
		f, err := minic.ParseFile(sf.Path, sf.Src)
		if err != nil {
			panic(err)
		}
		fns = append(fns, f.Funcs...)
	}
	return fns
})

// matchesReference lowers fn into g and checks it against the reference
// builder: the same error, or the same Dot rendering and, block by block,
// the same terminator positions and the same condition and return
// expressions (by identity, which Dot cannot show).
func matchesReference(t *testing.T, g *Graph, fn *minic.FuncDecl) {
	t.Helper()
	want, wantErr := refBuild(fn)
	gotErr := g.Lower(fn)
	if !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("%s: error = %v, reference %v", fn.Name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got, want := g.Dot(), want.Dot(); got != want {
		t.Fatalf("%s: Dot differs\n--- lowered ---\n%s--- reference ---\n%s", fn.Name, got, want)
	}
	for i, rb := range want.Blocks {
		term := &g.Blocks[i].Term
		var pos minic.Pos
		var x minic.Expr
		switch rt := rb.Term.(type) {
		case *refBranch:
			pos, x = rt.Pos, rt.Cond
		case *refReturn:
			pos, x = rt.Pos, rt.X
		}
		if term.Pos != pos || g.Expr(term) != x {
			t.Fatalf("%s: block %d terminator at %v with expression %v, reference %v with %v",
				fn.Name, i, term.Pos, g.Expr(term), pos, x)
		}
	}
}

// FuzzLowerMatchesReference parses arbitrary source and lowers every
// function it declares with both builders: Lower into ONE reused Graph,
// so each function is lowered over whatever the one before it left, and
// the pointer-graph reference, freshly. Seeds: the property tests'
// program generator, one program and two to a file, and every function
// of the scale-0.1 corpus, each file's in file order.
func FuzzLowerMatchesReference(f *testing.F) {
	prog := func(seed int64) string { return (&cfgProgGen{r: rand.New(rand.NewSource(seed))}).program() }
	for seed := int64(0); seed < 64; seed++ {
		f.Add(prog(seed))
		f.Add(prog(seed) + "\n" + strings.Replace(prog(seed+64), "int gen(", "int gen2(", 1))
	}
	for _, sf := range seedCorpus().Files {
		f.Add(sf.Src)
	}
	for _, src := range []string{
		"int f(void)\n{\n\tgoto a;\n\tgoto b;\n}\n",
		"int f(void)\n{\n\tbreak;\n\tgoto x;\n}\n",
		"int f(void)\n{\nl:\nl:\n\treturn 0;\n}\n",
		"int f(int n)\n{\n\tfor (;;)\n\t\tcontinue;\n}\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := minic.ParseFile("fuzz.c", src)
		if err != nil {
			return
		}
		var g Graph
		for _, fn := range file.Funcs {
			matchesReference(t, &g, fn)
		}
	})
}

// TestLowerAllocatesNothing pins the point of lowering into a caller's
// Graph: once its buffers have grown, lowering a corpus function makes
// no allocation at all.
func TestLowerAllocatesNothing(t *testing.T) {
	var g Graph
	for _, fn := range seedFuncs() {
		if err := g.Lower(fn); err != nil {
			t.Fatalf("%s: %v", fn.Name, err)
		}
	}
	for _, fn := range seedFuncs() {
		if n := testing.AllocsPerRun(5, func() { g.Lower(fn) }); n != 0 {
			t.Fatalf("lowering %s into a warmed Graph made %v allocations, want 0", fn.Name, n)
		}
	}
}

// TestLowerAfterLargerFunction lowers a small function into a Graph that
// last held a large one with labels, loops and dead code: nothing may
// carry over, and Reset must leave no syntax behind.
func TestLowerAfterLargerFunction(t *testing.T) {
	large := `
int large(int a, int b)
{
	int i = 0;
	for (i = 0; i < a; i++) {
		if (b)
			goto out;
		while (a > b) {
			a--;
			if (a == 3)
				break;
		}
	}
	return 1;
	a = 2;
out:
	b = a;
again:
	if (b > 0)
		goto again;
	return 0;
}

int small(int x)
{
	x = x + 1;
	return x;
}
`
	file, err := minic.ParseFile("t.c", large)
	if err != nil {
		t.Fatal(err)
	}
	var g Graph
	matchesReference(t, &g, file.Funcs[0])
	matchesReference(t, &g, file.Funcs[1])
	if len(g.labels) != 0 || len(g.posts) != 0 {
		t.Fatalf("small function kept %d labels and %d loop posts from the large one", len(g.labels), len(g.posts))
	}
	g.Reset()
	for _, s := range g.Stmts[:cap(g.Stmts)] {
		if s != nil {
			t.Fatal("Reset left a statement behind")
		}
	}
	for _, x := range g.Exprs[:cap(g.Exprs)] {
		if x != nil {
			t.Fatal("Reset left an expression behind")
		}
	}
	if g.Fn != nil {
		t.Fatal("Reset left the function behind")
	}
}
