// Package cfg lowers mini-C function bodies to control-flow graphs.
//
// The graph shape mirrors what the Clang Static Analyzer builds before
// symbolic execution: straight-line blocks of simple statements joined by
// branch / jump / return terminators, with goto and labels resolved to
// explicit edges. Lowering reuses a caller-owned Graph's buffers, so once
// they have grown it allocates nothing.
package cfg

import (
	"fmt"

	"knighter/internal/minic"
)

// Graph is the control-flow graph of one function, flat: blocks are index
// ranges into Stmts, and terminators name successors by block index.
// Blocks[0] is the entry block. Every reachable block has a terminator.
type Graph struct {
	Fn     *minic.FuncDecl
	Blocks []Block
	Stmts  []minic.Stmt // DeclStmt and ExprStmt only; block b's are Stmts[b.Lo:b.Hi]
	Exprs  []minic.Expr // branch conditions and return values (Term.Expr)

	labels []label          // goto targets: the builder's table, then the tests' Dot's
	posts  []minic.ExprStmt // for-loop post expressions as statements
	// The builder's scratch.
	cur         int32 // the block being filled; -1 after return/goto/break/continue
	loops       []loopCtx
	err         error
	work, remap []int32 // prune's worklist and renumbering
}

// Block is a maximal straight-line statement sequence, Graph.Stmts[Lo:Hi].
type Block struct {
	Lo, Hi int32
	Term   Term
}

// Kind is a terminator's kind.
type Kind uint8

const (
	Open   Kind = iota // a block still being filled; no reachable block stays Open
	Return             // leave the function
	Jump               // go to Succ[0]
	Branch             // go to Succ[0] when Expr holds, to Succ[1] otherwise
)

// Term ends a block. Expr indexes Graph.Exprs — a Branch's condition, a
// Return's value — or is -1; Pos is a Branch's or Return's position.
type Term struct {
	Kind Kind
	Succ [2]int32
	Expr int32
	Pos  minic.Pos
}

// Succs returns the successor block indices.
func (t *Term) Succs() []int32 {
	switch t.Kind {
	case Jump:
		return t.Succ[:1]
	case Branch:
		return t.Succ[:2]
	}
	return nil
}

// BlockStmts returns block i's statements.
func (g *Graph) BlockStmts(i int32) []minic.Stmt {
	return g.Stmts[g.Blocks[i].Lo:g.Blocks[i].Hi]
}

// Expr returns t's expression, or nil when it has none.
func (g *Graph) Expr(t *Term) minic.Expr {
	if t.Expr < 0 {
		return nil
	}
	return g.Exprs[t.Expr]
}

// BuildError reports a control-flow construction problem (for example a
// goto to an undefined label).
type BuildError struct {
	Pos minic.Pos
	Msg string
}

func (e *BuildError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

type label struct {
	name          string
	block         int32 // -1 once pruned
	defined, used bool  // used: a goto names it, first at gotoPos
	gotoPos       minic.Pos
}

type loopCtx struct {
	continueTo, breakTo int32
}

// Lower lowers fn's body into g, reusing its buffers. Unreachable blocks
// are pruned. On error g holds no usable graph.
func (g *Graph) Lower(fn *minic.FuncDecl) error {
	g.Blocks, g.Stmts, g.Exprs, g.labels, g.posts = g.Blocks[:0], g.Stmts[:0], g.Exprs[:0], g.labels[:0], g.posts[:0]
	g.Fn, g.loops, g.err = fn, g.loops[:0], nil
	g.cur = g.newBlock()
	g.buildBlock(fn.Body)
	if g.cur >= 0 && g.Blocks[g.cur].Term.Kind == Open {
		g.Blocks[g.cur].Term = Term{Kind: Return, Expr: -1, Pos: fn.Pos}
	}
	// Any label referenced by goto must have been defined; undefined ones
	// are reported in the order of their first goto.
	for _, l := range g.labels {
		if l.used && !l.defined {
			return &BuildError{Pos: l.gotoPos, Msg: fmt.Sprintf("goto undefined label %q", l.name)}
		}
	}
	if g.err != nil {
		return g.err
	}
	g.prune()
	return nil
}

// Reset drops every reference g holds into a function's syntax, so a
// Graph kept for reuse retains no AST.
func (g *Graph) Reset() {
	g.Fn = nil
	g.Blocks, g.Stmts, g.Exprs = reuse(g.Blocks), reuse(g.Stmts), reuse(g.Exprs)
	g.labels, g.posts = reuse(g.labels), reuse(g.posts)
}

// reuse zeroes s up to its capacity and empties it.
func reuse[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

func (g *Graph) newBlock() int32 {
	g.Blocks = append(g.Blocks, Block{Term: Term{Expr: -1}})
	return int32(len(g.Blocks) - 1)
}

func (g *Graph) expr(x minic.Expr) int32 {
	if x == nil {
		return -1
	}
	g.Exprs = append(g.Exprs, x)
	return int32(len(g.Exprs) - 1)
}

// labelBlock returns (creating on demand) the label table entry of name.
func (g *Graph) labelBlock(name string) *label {
	for i := range g.labels {
		if g.labels[i].name == name {
			return &g.labels[i]
		}
	}
	g.labels = append(g.labels, label{name: name, block: g.newBlock()})
	return &g.labels[len(g.labels)-1]
}

// open returns the current block, or a fresh dangling one after a
// terminator (kept for positions, pruned if nothing jumps to it).
func (g *Graph) open() *Block {
	if g.cur < 0 || g.Blocks[g.cur].Term.Kind != Open {
		g.cur = g.newBlock()
	}
	return &g.Blocks[g.cur]
}

// emit appends s to the current block. A block's statements are
// contiguous: the builder leaves a block only once it is terminated.
func (g *Graph) emit(s minic.Stmt) {
	blk := g.open()
	if blk.Lo == blk.Hi {
		blk.Lo = int32(len(g.Stmts))
	}
	g.Stmts = append(g.Stmts, s)
	blk.Hi = int32(len(g.Stmts))
}

func (g *Graph) terminate(t Term) { g.open().Term = t }

// end terminates the current block with t and leaves no current block.
func (g *Graph) end(t Term) { g.terminate(t); g.cur = -1 }

func jump(to int32) Term { return Term{Kind: Jump, Succ: [2]int32{to}, Expr: -1} }

func (g *Graph) branch(cond minic.Expr, then, els int32, pos minic.Pos) Term {
	return Term{Kind: Branch, Succ: [2]int32{then, els}, Expr: g.expr(cond), Pos: pos}
}

func (g *Graph) fail(pos minic.Pos, msg string) {
	if g.err == nil {
		g.err = &BuildError{Pos: pos, Msg: msg}
	}
}

func (g *Graph) buildBlock(blk *minic.Block) {
	for _, s := range blk.Stmts {
		g.buildStmt(s)
	}
}

func (g *Graph) buildStmt(s minic.Stmt) {
	switch st := s.(type) {
	case *minic.Block:
		g.buildBlock(st)
	case *minic.DeclStmt, *minic.ExprStmt:
		g.emit(s)
	case *minic.ReturnStmt:
		g.end(Term{Kind: Return, Expr: g.expr(st.X), Pos: st.Pos})
	case *minic.IfStmt:
		thenB, elseB, joinB := g.newBlock(), g.newBlock(), g.newBlock()
		g.terminate(g.branch(st.Cond, thenB, elseB, st.Pos))
		g.cur = thenB
		g.buildStmt(st.Then)
		g.finishWithJump(joinB)
		g.cur = elseB
		if st.Else != nil {
			g.buildStmt(st.Else)
		}
		g.finishWithJump(joinB)
		g.cur = joinB
	case *minic.WhileStmt:
		header, body, after := g.newBlock(), g.newBlock(), g.newBlock()
		g.finishWithJump(header)
		g.cur = header
		g.terminate(g.branch(st.Cond, body, after, st.Pos))
		g.loops = append(g.loops, loopCtx{continueTo: header, breakTo: after})
		g.cur = body
		g.buildStmt(st.Body)
		g.finishWithJump(header)
		g.loops = g.loops[:len(g.loops)-1]
		g.cur = after
	case *minic.ForStmt:
		if st.Init != nil {
			g.buildStmt(st.Init)
		}
		header, body, post, after := g.newBlock(), g.newBlock(), g.newBlock(), g.newBlock()
		g.finishWithJump(header)
		g.cur = header
		if st.Cond != nil {
			g.terminate(g.branch(st.Cond, body, after, st.Pos))
		} else {
			g.terminate(jump(body))
		}
		g.loops = append(g.loops, loopCtx{continueTo: post, breakTo: after})
		g.cur = body
		g.buildStmt(st.Body)
		g.finishWithJump(post)
		g.cur = post
		if st.Post != nil {
			// A pointer taken before posts grows keeps the old array.
			g.posts = append(g.posts, minic.ExprStmt{X: st.Post, Pos: st.Post.NodePos()})
			g.emit(&g.posts[len(g.posts)-1])
		}
		g.finishWithJump(header)
		g.loops = g.loops[:len(g.loops)-1]
		g.cur = after
	case *minic.BreakStmt:
		if len(g.loops) == 0 {
			g.fail(st.Pos, "break outside loop")
			return
		}
		g.end(jump(g.loops[len(g.loops)-1].breakTo))
	case *minic.ContinueStmt:
		if len(g.loops) == 0 {
			g.fail(st.Pos, "continue outside loop")
			return
		}
		g.end(jump(g.loops[len(g.loops)-1].continueTo))
	case *minic.GotoStmt:
		l := g.labelBlock(st.Label)
		if !l.used {
			l.used, l.gotoPos = true, st.Pos
		}
		g.end(jump(l.block))
	case *minic.LabeledStmt:
		l := g.labelBlock(st.Label)
		l.defined = true
		g.finishWithJump(l.block)
		g.cur = l.block
		if st.Stmt != nil {
			g.buildStmt(st.Stmt)
		}
	default:
		g.fail(s.NodePos(), fmt.Sprintf("cfg: unsupported statement %T", s))
	}
}

// finishWithJump terminates the current block, if open, with a jump.
func (g *Graph) finishWithJump(target int32) {
	if g.cur >= 0 && g.Blocks[g.cur].Term.Kind == Open {
		g.Blocks[g.cur].Term = jump(target)
	}
}

// prune removes blocks unreachable from entry and renumbers the rest,
// keeping their order.
func (g *Graph) prune() {
	// remap[i] is 0 while block i is unreached, then 1 + its new index.
	if cap(g.remap) < len(g.Blocks) {
		g.remap = make([]int32, len(g.Blocks))
	}
	remap := g.remap[:len(g.Blocks)]
	clear(remap)
	remap[0], g.work = 1, append(g.work[:0], 0)
	for len(g.work) > 0 {
		i := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		for _, s := range g.Blocks[i].Term.Succs() {
			if remap[s] == 0 {
				remap[s], g.work = 1, append(g.work, s)
			}
		}
	}
	kept := int32(0)
	for i := range g.Blocks {
		if remap[i] != 0 {
			g.Blocks[kept] = g.Blocks[i]
			kept++
			remap[i] = kept
		}
	}
	g.Blocks = g.Blocks[:kept]
	for i := range g.Blocks {
		succ := g.Blocks[i].Term.Succs()
		for j, s := range succ {
			succ[j] = remap[s] - 1
		}
	}
	for i := range g.labels {
		g.labels[i].block = remap[g.labels[i].block] - 1
	}
}
