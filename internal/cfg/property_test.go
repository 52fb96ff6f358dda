package cfg

import (
	"fmt"
	"math/rand"
	"testing"

	"knighter/internal/minic"
)

// cfgProgGen emits random parseable programs spanning the full
// control-flow surface (nested conditionals, loops, switch desugaring,
// goto ladders, early returns).
type cfgProgGen struct{ r *rand.Rand }

func (g *cfgProgGen) cond() string {
	return []string{"a", "b > 3", "!p", "a == b", "a && b", "a || !b"}[g.r.Intn(6)]
}

func (g *cfgProgGen) stmt(depth, indent int, labels *int) string {
	pad := ""
	for i := 0; i < indent; i++ {
		pad += "\t"
	}
	if depth <= 0 {
		return pad + "a = a + 1;\n"
	}
	switch g.r.Intn(9) {
	case 0:
		s := pad + "if (" + g.cond() + ") {\n" + g.stmt(depth-1, indent+1, labels)
		if g.r.Intn(2) == 0 {
			s += pad + "} else {\n" + g.stmt(depth-1, indent+1, labels)
		}
		return s + pad + "}\n"
	case 1:
		return pad + "while (" + g.cond() + ") {\n" +
			g.stmt(depth-1, indent+1, labels) + pad + "}\n"
	case 2:
		inner := g.stmt(depth-1, indent+1, labels)
		extra := ""
		if g.r.Intn(2) == 0 {
			extra = pad + "\tif (" + g.cond() + ")\n" + pad + "\t\tbreak;\n"
		}
		return pad + "for (int i = 0; i < 4; i++) {\n" + inner + extra + pad + "}\n"
	case 3:
		return pad + "return a;\n"
	case 4:
		*labels++
		return pad + "goto done;\n"
	case 5:
		return pad + "switch (a) {\n" +
			pad + "case 0:\n" + g.stmt(0, indent+1, labels) + pad + "\tbreak;\n" +
			pad + "case 1:\n" + pad + "\treturn 1;\n" +
			pad + "default:\n" + g.stmt(0, indent+1, labels) + pad + "\tbreak;\n" +
			pad + "}\n"
	case 6:
		return pad + "b = f(a);\n"
	case 7:
		return g.stmt(depth-1, indent, labels) + g.stmt(depth-1, indent, labels)
	default:
		return pad + "p = q;\n"
	}
}

func (g *cfgProgGen) program() string {
	labels := 0
	body := ""
	n := 2 + g.r.Intn(4)
	for i := 0; i < n; i++ {
		body += g.stmt(2, 1, &labels)
	}
	tail := "\treturn 0;\n"
	if labels > 0 {
		tail = "\treturn 0;\ndone:\n\treturn -1;\n"
	}
	return "int gen(int a, int b, struct s *p, struct s *q)\n{\n" + body + tail + "}\n"
}

// TestCFGWellFormedOnRandomPrograms: every generated program must lower
// to a graph where all blocks are terminated, all successors are in the
// graph, the entry is block 0, and every reachable block is reachable
// from entry (by construction of pruning).
func TestCFGWellFormedOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		g := &cfgProgGen{r: rand.New(rand.NewSource(seed))}
		src := g.program()
		graph, err := lower(parseFunc(t, src))
		if err != nil {
			t.Fatalf("seed %d: build failed: %v\n%s", seed, err, src)
		}
		for i := range graph.Blocks {
			if b := &graph.Blocks[i]; b.Lo < 0 || b.Lo > b.Hi || int(b.Hi) > len(graph.Stmts) {
				t.Fatalf("seed %d: block %d has statements [%d:%d] of %d", seed, i, b.Lo, b.Hi, len(graph.Stmts))
			}
		}
		reach := make([]bool, len(graph.Blocks))
		var visit func(int32)
		visit = func(b int32) {
			if reach[b] {
				return
			}
			reach[b] = true
			if graph.Blocks[b].Term.Kind == Open {
				t.Fatalf("seed %d: reachable block %d unterminated\n%s", seed, b, src)
			}
			for _, s := range graph.Blocks[b].Term.Succs() {
				if s < 0 || int(s) >= len(graph.Blocks) {
					t.Fatalf("seed %d: successor outside graph", seed)
				}
				visit(s)
			}
		}
		visit(0)
		for b := range graph.Blocks {
			if !reach[b] {
				t.Fatalf("seed %d: block %d kept but unreachable", seed, b)
			}
		}
		// At least one return-terminated block must exist.
		returns := 0
		for _, b := range graph.Blocks {
			if b.Term.Kind == Return {
				returns++
			}
		}
		if returns == 0 {
			t.Fatalf("seed %d: no return block\n%s", seed, src)
		}
	}
}

// TestCFGStatementConservation: every Decl/Expr statement of the source
// appears in exactly one reachable block (or is legitimately pruned as
// dead code after a return/goto).
func TestCFGStatementConservation(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		g := &cfgProgGen{r: rand.New(rand.NewSource(seed))}
		src := g.program()
		graph, err := lower(parseFunc(t, src))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[minic.Stmt]int{}
		for b := range graph.Blocks {
			for _, s := range graph.BlockStmts(int32(b)) {
				seen[s]++
			}
		}
		for s, n := range seen {
			if n != 1 {
				t.Fatalf("seed %d: statement %q appears %d times",
					seed, formatStmt(s), n)
			}
		}
	}
}

// TestCFGDeterministic: building twice from the same AST yields the same
// shape.
func TestCFGDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := &cfgProgGen{r: rand.New(rand.NewSource(seed))}
		src := g.program()
		fn := parseFunc(t, src)
		g1, err1 := lower(fn)
		g2, err2 := lower(fn)
		if (err1 == nil) != (err2 == nil) {
			t.Fatal("error disagreement")
		}
		if err1 != nil {
			continue
		}
		if shapeOf(g1) != shapeOf(g2) {
			t.Fatalf("seed %d: shapes differ", seed)
		}
	}
}

func shapeOf(g *Graph) string {
	out := ""
	for i, b := range g.Blocks {
		out += fmt.Sprintf("B%d[%d]:", i, b.Hi-b.Lo)
		switch t := b.Term; t.Kind {
		case Branch:
			out += fmt.Sprintf("br(%d,%d);", t.Succ[0], t.Succ[1])
		case Jump:
			out += fmt.Sprintf("j(%d);", t.Succ[0])
		case Return:
			out += "ret;"
		}
	}
	return out
}
