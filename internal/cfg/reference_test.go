package cfg

import (
	"fmt"
	"strings"

	"knighter/internal/minic"
)

// This file keeps the pointer-graph builder the flat lowering replaced,
// as the reference FuzzLowerMatchesReference holds Lower to: one heap
// block per basic block, terminators as interface values, maps for the
// label tables. Its one change is that an undefined label is reported in
// the order of its first goto, not in map order, so its errors are
// deterministic.

type refGraph struct {
	Fn     *minic.FuncDecl
	Blocks []*refBlock
}

type refBlock struct {
	ID    int
	Stmts []minic.Stmt
	Term  refTerminator
	Label string
}

type refTerminator interface {
	Succs() []*refBlock
}

type refBranch struct {
	Cond       minic.Expr
	Then, Else *refBlock
	Pos        minic.Pos
}

type refJump struct{ To *refBlock }

type refReturn struct {
	X   minic.Expr
	Pos minic.Pos
}

func (t *refBranch) Succs() []*refBlock { return []*refBlock{t.Then, t.Else} }
func (t *refJump) Succs() []*refBlock   { return []*refBlock{t.To} }
func (t *refReturn) Succs() []*refBlock { return nil }

type refLoopCtx struct {
	continueTo *refBlock
	breakTo    *refBlock
}

type refBuilder struct {
	g             *refGraph
	cur           *refBlock
	labels        map[string]*refBlock
	definedLabels map[string]bool
	gotos         map[string][]minic.Pos
	gotoOrder     []string // labels in the order of their first goto
	loops         []refLoopCtx
	nextID        int
	errList       []error
}

func refBuild(fn *minic.FuncDecl) (*refGraph, error) {
	b := &refBuilder{
		g:             &refGraph{Fn: fn},
		labels:        map[string]*refBlock{},
		definedLabels: map[string]bool{},
		gotos:         map[string][]minic.Pos{},
	}
	b.cur = b.newBlock()
	b.buildBlock(fn.Body)
	if b.cur != nil && b.cur.Term == nil {
		b.cur.Term = &refReturn{Pos: fn.Pos}
	}
	for _, name := range b.gotoOrder {
		if !b.definedLabels[name] {
			return nil, &BuildError{Pos: b.gotos[name][0], Msg: fmt.Sprintf("goto undefined label %q", name)}
		}
	}
	if len(b.errList) > 0 {
		return nil, b.errList[0]
	}
	b.prune()
	return b.g, nil
}

func (b *refBuilder) newBlock() *refBlock {
	blk := &refBlock{ID: b.nextID}
	b.nextID++
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *refBuilder) labelBlock(name string) *refBlock {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	blk.Label = name
	b.labels[name] = blk
	return blk
}

func (b *refBuilder) emit(s minic.Stmt) {
	if b.cur == nil || b.cur.Term != nil {
		b.cur = b.newBlock()
	}
	b.cur.Stmts = append(b.cur.Stmts, s)
}

func (b *refBuilder) terminate(t refTerminator) {
	if b.cur == nil || b.cur.Term != nil {
		b.cur = b.newBlock()
	}
	b.cur.Term = t
}

func (b *refBuilder) buildBlock(blk *minic.Block) {
	for _, s := range blk.Stmts {
		b.buildStmt(s)
	}
}

func (b *refBuilder) buildStmt(s minic.Stmt) {
	switch st := s.(type) {
	case *minic.Block:
		b.buildBlock(st)
	case *minic.DeclStmt, *minic.ExprStmt:
		b.emit(s)
	case *minic.ReturnStmt:
		b.terminate(&refReturn{X: st.X, Pos: st.Pos})
		b.cur = nil
	case *minic.IfStmt:
		thenB := b.newBlock()
		elseB := b.newBlock()
		joinB := b.newBlock()
		b.terminate(&refBranch{Cond: st.Cond, Then: thenB, Else: elseB, Pos: st.Pos})
		b.cur = thenB
		b.buildStmt(st.Then)
		b.finishWithJump(joinB)
		b.cur = elseB
		if st.Else != nil {
			b.buildStmt(st.Else)
		}
		b.finishWithJump(joinB)
		b.cur = joinB
	case *minic.WhileStmt:
		header := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.finishWithJump(header)
		b.cur = header
		b.terminate(&refBranch{Cond: st.Cond, Then: body, Else: after, Pos: st.Pos})
		b.loops = append(b.loops, refLoopCtx{continueTo: header, breakTo: after})
		b.cur = body
		b.buildStmt(st.Body)
		b.finishWithJump(header)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after
	case *minic.ForStmt:
		if st.Init != nil {
			b.buildStmt(st.Init)
		}
		header := b.newBlock()
		body := b.newBlock()
		post := b.newBlock()
		after := b.newBlock()
		b.finishWithJump(header)
		b.cur = header
		if st.Cond != nil {
			b.terminate(&refBranch{Cond: st.Cond, Then: body, Else: after, Pos: st.Pos})
		} else {
			b.terminate(&refJump{To: body})
		}
		b.loops = append(b.loops, refLoopCtx{continueTo: post, breakTo: after})
		b.cur = body
		b.buildStmt(st.Body)
		b.finishWithJump(post)
		b.cur = post
		if st.Post != nil {
			b.emit(&minic.ExprStmt{X: st.Post, Pos: st.Post.NodePos()})
		}
		b.finishWithJump(header)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after
	case *minic.BreakStmt:
		if len(b.loops) == 0 {
			b.errList = append(b.errList, &BuildError{Pos: st.Pos, Msg: "break outside loop"})
			return
		}
		b.terminate(&refJump{To: b.loops[len(b.loops)-1].breakTo})
		b.cur = nil
	case *minic.ContinueStmt:
		if len(b.loops) == 0 {
			b.errList = append(b.errList, &BuildError{Pos: st.Pos, Msg: "continue outside loop"})
			return
		}
		b.terminate(&refJump{To: b.loops[len(b.loops)-1].continueTo})
		b.cur = nil
	case *minic.GotoStmt:
		if _, seen := b.gotos[st.Label]; !seen {
			b.gotoOrder = append(b.gotoOrder, st.Label)
		}
		b.gotos[st.Label] = append(b.gotos[st.Label], st.Pos)
		b.terminate(&refJump{To: b.labelBlock(st.Label)})
		b.cur = nil
	case *minic.LabeledStmt:
		lb := b.labelBlock(st.Label)
		b.definedLabels[st.Label] = true
		b.finishWithJump(lb)
		b.cur = lb
		if st.Stmt != nil {
			b.buildStmt(st.Stmt)
		}
	default:
		b.errList = append(b.errList, &BuildError{Pos: s.NodePos(), Msg: fmt.Sprintf("cfg: unsupported statement %T", s)})
	}
}

func (b *refBuilder) finishWithJump(target *refBlock) {
	if b.cur != nil && b.cur.Term == nil {
		b.cur.Term = &refJump{To: target}
	}
}

func (b *refBuilder) prune() {
	reach := map[*refBlock]bool{}
	var visit func(*refBlock)
	visit = func(blk *refBlock) {
		if blk == nil || reach[blk] {
			return
		}
		reach[blk] = true
		if blk.Term != nil {
			for _, s := range blk.Term.Succs() {
				visit(s)
			}
		}
	}
	visit(b.g.Blocks[0])
	var kept []*refBlock
	for _, blk := range b.g.Blocks {
		if reach[blk] {
			blk.ID = len(kept)
			kept = append(kept, blk)
		}
	}
	b.g.Blocks = kept
}

// Dot renders the graph in Graphviz dot syntax (debug aid).
func (g *Graph) Dot() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", g.Fn.Name)
	for i := range g.Blocks {
		id, t := int32(i), &g.Blocks[i].Term
		var lines []string
		for _, l := range g.labels {
			if l.block == id {
				lines = append(lines, l.name+":")
			}
		}
		for _, s := range g.BlockStmts(id) {
			lines = append(lines, formatStmt(s))
		}
		label := fmt.Sprintf("B%d\\n%s", id, strings.ReplaceAll(strings.Join(lines, "\\n"), "\"", "'"))
		fmt.Fprintf(&sb, "  b%d [shape=box,label=\"%s\"];\n", id, label)
		switch t.Kind {
		case Branch:
			fmt.Fprintf(&sb, "  b%d -> b%d [label=\"T: %s\"];\n", id, t.Succ[0],
				strings.ReplaceAll(minic.FormatExpr(g.Expr(t)), "\"", "'"))
			fmt.Fprintf(&sb, "  b%d -> b%d [label=\"F\"];\n", id, t.Succ[1])
		case Jump:
			fmt.Fprintf(&sb, "  b%d -> b%d;\n", id, t.Succ[0])
		case Return:
			fmt.Fprintf(&sb, "  b%d -> exit;\n", id)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// formatStmt renders one statement as minic prints it at indent 0: the
// body of a function that holds only that statement, one tab shallower.
func formatStmt(s minic.Stmt) string {
	fn := minic.FormatFunc(&minic.FuncDecl{Ret: minic.Type{Base: "void"}, Name: "f", Body: &minic.Block{Stmts: []minic.Stmt{s}}})
	body := "\n" + fn[strings.Index(fn, "{\n")+2:len(fn)-len("}\n")]
	return strings.TrimSuffix(strings.ReplaceAll(body, "\n\t", "\n")[1:], "\n")
}

func (g *refGraph) Dot() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", g.Fn.Name)
	for _, blk := range g.Blocks {
		var lines []string
		if blk.Label != "" {
			lines = append(lines, blk.Label+":")
		}
		for _, s := range blk.Stmts {
			lines = append(lines, formatStmt(s))
		}
		label := fmt.Sprintf("B%d\\n%s", blk.ID, strings.ReplaceAll(strings.Join(lines, "\\n"), "\"", "'"))
		fmt.Fprintf(&sb, "  b%d [shape=box,label=\"%s\"];\n", blk.ID, label)
		switch t := blk.Term.(type) {
		case *refBranch:
			fmt.Fprintf(&sb, "  b%d -> b%d [label=\"T: %s\"];\n", blk.ID, t.Then.ID,
				strings.ReplaceAll(minic.FormatExpr(t.Cond), "\"", "'"))
			fmt.Fprintf(&sb, "  b%d -> b%d [label=\"F\"];\n", blk.ID, t.Else.ID)
		case *refJump:
			fmt.Fprintf(&sb, "  b%d -> b%d;\n", blk.ID, t.To.ID)
		case *refReturn:
			fmt.Fprintf(&sb, "  b%d -> exit;\n", blk.ID)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
