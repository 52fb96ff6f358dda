package cfg

import (
	"strings"
	"testing"

	"knighter/internal/minic"
)

// parseFunc parses src, which must hold exactly one function.
func parseFunc(t *testing.T, src string) *minic.FuncDecl {
	t.Helper()
	f, err := minic.ParseFile("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	if len(f.Funcs) != 1 {
		t.Fatalf("parse: %d functions, want 1\n%s", len(f.Funcs), src)
	}
	return f.Funcs[0]
}

// lower lowers fn into a fresh Graph.
func lower(fn *minic.FuncDecl) (*Graph, error) {
	g := &Graph{}
	return g, g.Lower(fn)
}

func mustBuild(t *testing.T, src string) *Graph {
	t.Helper()
	g, err := lower(parseFunc(t, src))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

// checkWellFormed verifies structural invariants every built graph must
// satisfy: all blocks terminated, successors in the graph, statement
// ranges inside Stmts, entry first.
func checkWellFormed(t *testing.T, g *Graph) {
	t.Helper()
	for i := range g.Blocks {
		b := &g.Blocks[i]
		if b.Lo < 0 || b.Lo > b.Hi || int(b.Hi) > len(g.Stmts) {
			t.Errorf("block %d has statements [%d:%d] of %d", i, b.Lo, b.Hi, len(g.Stmts))
		}
		if b.Term.Kind == Open {
			t.Errorf("block %d has no terminator", i)
			continue
		}
		for _, s := range b.Term.Succs() {
			if s < 0 || int(s) >= len(g.Blocks) {
				t.Errorf("block %d has successor outside graph", i)
			}
		}
	}
}

func TestStraightLine(t *testing.T) {
	g := mustBuild(t, "int f(void)\n{\n\tint a = 1;\n\ta = a + 1;\n\treturn a;\n}\n")
	checkWellFormed(t, g)
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(g.Blocks))
	}
	if g.Blocks[0].Term.Kind != Return {
		t.Fatalf("terminator = %v", g.Blocks[0].Term.Kind)
	}
	if len(g.BlockStmts(0)) != 2 {
		t.Errorf("stmts = %d, want 2", len(g.BlockStmts(0)))
	}
}

func TestIfElseDiamond(t *testing.T) {
	g := mustBuild(t, `
int f(int x)
{
	int r;
	if (x > 0)
		r = 1;
	else
		r = 2;
	return r;
}
`)
	checkWellFormed(t, g)
	br := g.Blocks[0].Term
	if br.Kind != Branch {
		t.Fatalf("entry terminator = %v", br.Kind)
	}
	then, els := br.Succ[0], br.Succ[1]
	if then == els {
		t.Error("then and else must differ")
	}
	// Both arms must reach the same join block.
	tj, ej := g.Blocks[then].Term, g.Blocks[els].Term
	if tj.Kind != Jump || ej.Kind != Jump || tj.Succ[0] != ej.Succ[0] {
		t.Fatalf("arms do not join: %v %v", tj.Kind, ej.Kind)
	}
	if k := g.Blocks[tj.Succ[0]].Term.Kind; k != Return {
		t.Errorf("join terminator = %v", k)
	}
}

func TestEarlyReturnNoJoinEdge(t *testing.T) {
	g := mustBuild(t, `
int f(int x)
{
	if (!x)
		return -1;
	return x;
}
`)
	checkWellFormed(t, g)
	br := g.Blocks[0].Term
	if br.Kind != Branch {
		t.Fatalf("entry terminator = %v", br.Kind)
	}
	if k := g.Blocks[br.Succ[0]].Term.Kind; k != Return {
		t.Errorf("then terminator = %v, want Return", k)
	}
}

func TestWhileLoopShape(t *testing.T) {
	g := mustBuild(t, `
int f(int n)
{
	while (n > 0)
		n--;
	return n;
}
`)
	checkWellFormed(t, g)
	// Find the header: a block with a Branch whose Then eventually jumps
	// back to it.
	header := int32(-1)
	for b := range g.Blocks {
		if br := g.Blocks[b].Term; br.Kind == Branch {
			cur := br.Succ[0]
			for i := 0; i < 10; i++ {
				j := g.Blocks[cur].Term
				if j.Kind != Jump {
					break
				}
				if j.Succ[0] == int32(b) {
					header = int32(b)
					break
				}
				cur = j.Succ[0]
			}
		}
	}
	if header < 0 {
		t.Fatal("no back edge found")
	}
}

func TestForLoopDesugar(t *testing.T) {
	g := mustBuild(t, `
int f(int n)
{
	int s = 0;
	for (int i = 0; i < n; i++)
		s += i;
	return s;
}
`)
	checkWellFormed(t, g)
	// init block must contain both decls (s and i).
	if len(g.BlockStmts(0)) != 2 {
		t.Errorf("entry stmts = %d, want 2 (s and i decls)", len(g.BlockStmts(0)))
	}
}

func TestGotoErrorPath(t *testing.T) {
	g := mustBuild(t, `
int f(int x)
{
	int r = 0;
	if (x < 0)
		goto err;
	r = 1;
	return r;
err:
	cleanup();
	return -1;
}
`)
	checkWellFormed(t, g)
	errBlock := int32(-1)
	for _, l := range g.labels {
		if l.name == "err" {
			errBlock = l.block
		}
	}
	if errBlock < 0 {
		t.Fatal("err label block not found")
	}
	if n := len(g.BlockStmts(errBlock)); n != 1 {
		t.Errorf("err block stmts = %d, want 1 (cleanup call)", n)
	}
	if k := g.Blocks[errBlock].Term.Kind; k != Return {
		t.Errorf("err block terminator = %v", k)
	}
}

func TestGotoUndefinedLabel(t *testing.T) {
	if _, err := lower(parseFunc(t, "int f(void)\n{\n\tgoto nowhere;\n}\n")); err == nil {
		t.Fatal("expected error for undefined label")
	}
}

func TestBreakContinue(t *testing.T) {
	g := mustBuild(t, `
int f(int n)
{
	int s = 0;
	while (n > 0) {
		n--;
		if (n == 5)
			continue;
		if (n == 2)
			break;
		s += n;
	}
	return s;
}
`)
	checkWellFormed(t, g)
}

func TestBreakOutsideLoopFails(t *testing.T) {
	if _, err := lower(parseFunc(t, "int f(void)\n{\n\tbreak;\n}\n")); err == nil {
		t.Fatal("expected error for break outside loop")
	}
}

func TestUnreachableCodePruned(t *testing.T) {
	g := mustBuild(t, `
int f(void)
{
	return 1;
	return 2;
}
`)
	checkWellFormed(t, g)
	for b := range g.Blocks {
		for _, s := range g.BlockStmts(int32(b)) {
			t.Errorf("unexpected reachable stmt %v", formatStmt(s))
		}
		if r := &g.Blocks[b].Term; r.Kind == Return {
			if lit, ok := g.Expr(r).(*minic.IntLit); !ok || lit.Val != 1 {
				t.Errorf("return expr = %v", minic.FormatExpr(g.Expr(r)))
			}
		}
	}
}

func TestImplicitVoidReturn(t *testing.T) {
	g := mustBuild(t, "void f(int x)\n{\n\tx = 1;\n}\n")
	checkWellFormed(t, g)
	r := &g.Blocks[len(g.Blocks)-1].Term
	if r.Kind != Return || g.Expr(r) != nil {
		t.Fatalf("implicit return missing: %v", r.Kind)
	}
}

func TestInfiniteForLoop(t *testing.T) {
	g := mustBuild(t, `
int f(int n)
{
	for (;;) {
		n--;
		if (n == 0)
			break;
	}
	return n;
}
`)
	checkWellFormed(t, g)
}

func TestDotOutput(t *testing.T) {
	g := mustBuild(t, "int f(int x)\n{\n\tif (x)\n\t\treturn 1;\n\treturn 0;\n}\n")
	dot := g.Dot()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "->") {
		t.Errorf("dot output malformed:\n%s", dot)
	}
}

func TestNestedLoops(t *testing.T) {
	g := mustBuild(t, `
int f(int n)
{
	int s = 0;
	for (int i = 0; i < n; i++) {
		for (int j = 0; j < i; j++) {
			if (j == 3)
				break;
			s += j;
		}
		if (s > 100)
			break;
	}
	return s;
}
`)
	checkWellFormed(t, g)
	// Count back edges: must be exactly 2 (one per loop).
	// A simple DFS-based back-edge count on reducible loops: edge to a
	// block currently on the DFS stack.
	onStack := make([]bool, len(g.Blocks))
	visited := make([]bool, len(g.Blocks))
	back := 0
	var dfs func(int32)
	dfs = func(b int32) {
		visited[b] = true
		onStack[b] = true
		for _, s := range g.Blocks[b].Term.Succs() {
			if onStack[s] {
				back++
			} else if !visited[s] {
				dfs(s)
			}
		}
		onStack[b] = false
	}
	dfs(0)
	if back != 2 {
		t.Errorf("back edges = %d, want 2", back)
	}
}
