package minic

import (
	"math"
	"slices"
	"sync/atomic"
)

// WalkStmts visits s and every statement nested in it, in pre-order.
func WalkStmts(s Stmt, visit func(Stmt)) {
	if s == nil {
		return
	}
	visit(s)
	switch x := s.(type) {
	case *Block:
		for _, sub := range x.Stmts {
			WalkStmts(sub, visit)
		}
	case *IfStmt:
		WalkStmts(x.Then, visit)
		WalkStmts(x.Else, visit)
	case *WhileStmt:
		WalkStmts(x.Body, visit)
	case *ForStmt:
		WalkStmts(x.Init, visit)
		WalkStmts(x.Body, visit)
	case *LabeledStmt:
		WalkStmts(x.Stmt, visit)
	}
}

// WalkExprs visits every expression of s and of the statements nested in
// it, each statement's expressions in pre-order, statements in WalkStmts
// order.
func WalkExprs(s Stmt, visit func(Expr)) {
	WalkStmts(s, func(st Stmt) {
		switch x := st.(type) {
		case *ExprStmt:
			walkExpr(x.X, visit)
		case *DeclStmt:
			walkExpr(x.Init, visit)
		case *IfStmt:
			walkExpr(x.Cond, visit)
		case *WhileStmt:
			walkExpr(x.Cond, visit)
		case *ForStmt:
			walkExpr(x.Cond, visit)
			walkExpr(x.Post, visit)
		case *ReturnStmt:
			walkExpr(x.X, visit)
		}
	})
}

func walkExpr(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch x := e.(type) {
	case *BinaryExpr:
		walkExpr(x.X, visit)
		walkExpr(x.Y, visit)
	case *UnaryExpr:
		walkExpr(x.X, visit)
	case *PostfixExpr:
		walkExpr(x.X, visit)
	case *AssignExpr:
		walkExpr(x.LHS, visit)
		walkExpr(x.RHS, visit)
	case *CallExpr:
		for _, a := range x.Args {
			walkExpr(a, visit)
		}
	case *IndexExpr:
		walkExpr(x.X, visit)
		walkExpr(x.Idx, visit)
	case *MemberExpr:
		walkExpr(x.X, visit)
	case *ParenExpr:
		walkExpr(x.X, visit)
	case *CondExpr:
		walkExpr(x.Cond, visit)
		walkExpr(x.Then, visit)
		walkExpr(x.Else, visit)
	case *CastExpr:
		walkExpr(x.X, visit)
	case *SizeofExpr:
		walkExpr(x.X, visit)
	}
}

// Footprint is what a function's syntax offers a checker callback to act
// on: the calls it makes, with the shape of their arguments, its
// uninitialized declarations and its index expressions. A checker that
// can tell from a footprint that it would do nothing in a function need
// not explore it: the scan scheduler skips it there.
type Footprint struct {
	// Callees are the distinct names the function calls, in first-call
	// order. A one-argument likely or unlikely is not a call: the
	// evaluator unwraps it without a call event. It still counts as the
	// right-hand side of an assignment or initializer, where a bind
	// callback sees the call's syntax.
	Callees []string
	// shapes, parallel to Callees, are what the calls of each callee
	// hold.
	shapes []callShape
	// UninitDecl: a local declared without an initializer, not an array.
	UninitDecl bool
	// UninitCleanup: such a declaration with a __free cleanup.
	UninitCleanup bool
	// Index: an index expression.
	Index bool
	// fn is the function the footprint was made of.
	fn *FuncDecl
	// verdicts are SetVerdict's answers, replaced whole on each one (nil
	// until the first), so readers need no lock.
	verdicts atomic.Pointer[[]verdict]
}

// verdict is one memoized answer (Footprint.Verdict).
type verdict struct {
	key   any
	quiet bool
}

// maxVerdicts bounds the verdicts a footprint keeps: a daemon may see
// any number of checkers, and a verdict past the bound is recomputed.
const maxVerdicts = 64

// callShape is what the call events of one callee hold.
type callShape struct {
	// minArgs is the fewest arguments a call event passes; noCall when
	// the callee is named only as a likely or unlikely on a bind's
	// right-hand side.
	minArgs int
	// products has bit i set when some call event's argument i, past
	// its parentheses, is a multiplication; bit 63 stands for every
	// argument from 63 on.
	products uint64
}

const noCall = math.MaxInt

// Calls reports whether the footprint's function calls name.
func (fp *Footprint) Calls(name string) bool { return slices.Contains(fp.Callees, name) }

// MulAt reports whether some call event of name has no argument arg, so
// that reading it panics, or has a multiplication there: the argument,
// past its parentheses, is a * binary expression. A cast around a
// product is not one.
func (fp *Footprint) MulAt(name string, arg int) bool {
	i := slices.Index(fp.Callees, name)
	if i < 0 || fp.shapes[i].minArgs == noCall {
		return false
	}
	s := fp.shapes[i]
	return arg < 0 || s.minArgs <= arg || s.products&(1<<min(arg, 63)) != 0
}

// ShortCall reports whether some call event of name has at most arg
// arguments, so that reading argument arg of it panics.
func (fp *Footprint) ShortCall(name string, arg int) bool {
	i := slices.Index(fp.Callees, name)
	return i >= 0 && fp.shapes[i].minArgs != noCall && (arg < 0 || fp.shapes[i].minArgs <= arg)
}

// Func returns the function fp was made of.
func (fp *Footprint) Func() *FuncDecl { return fp.fn }

// Verdict returns the verdict memoized under key, if there is one. A
// verdict is a fact about the function alone, under what its key names
// (a checker rule's callee sets, say), so every checker that builds an
// equal key shares it. It is safe for concurrent use with SetVerdict, and
// a hit allocates nothing when key is an interface value built once.
func (fp *Footprint) Verdict(key any) (v, ok bool) {
	if vs := fp.verdicts.Load(); vs != nil {
		for _, e := range *vs {
			if e.key == key {
				return e.quiet, true
			}
		}
	}
	return false, false
}

// SetVerdict memoizes v under key (Verdict). key must be comparable.
func (fp *Footprint) SetVerdict(key any, v bool) {
	for {
		old := fp.verdicts.Load()
		var vs []verdict
		if old != nil {
			vs = *old
		}
		if len(vs) >= maxVerdicts {
			return
		}
		next := append(vs[:len(vs):len(vs)], verdict{key, v})
		if fp.verdicts.CompareAndSwap(old, &next) {
			return
		}
	}
}

// Reset makes fp the footprint of fn, or empty for a nil fn, reusing its
// slices and dropping its verdicts. A footprint being read concurrently
// must not be Reset.
func (fp *Footprint) Reset(fn *FuncDecl) {
	clear(fp.Callees)
	*fp = Footprint{Callees: fp.Callees[:0], shapes: fp.shapes[:0], fn: fn}
	if fn == nil {
		return
	}
	bound := func(rhs Expr) {
		if c, ok := Unparen(rhs).(*CallExpr); ok {
			fp.callee(c.Fun)
		}
	}
	WalkStmts(fn.Body, func(s Stmt) {
		d, ok := s.(*DeclStmt)
		switch {
		case !ok:
		case d.Init != nil:
			bound(d.Init)
		case !d.Type.IsArray():
			fp.UninitDecl = true
			fp.UninitCleanup = fp.UninitCleanup || d.Cleanup != ""
		}
	})
	WalkExprs(fn.Body, func(e Expr) {
		switch x := e.(type) {
		case *CallExpr:
			if (x.Fun != "likely" && x.Fun != "unlikely") || len(x.Args) != 1 {
				s := &fp.shapes[fp.callee(x.Fun)]
				s.minArgs = min(s.minArgs, len(x.Args))
				for i, a := range x.Args {
					if b, ok := Unparen(a).(*BinaryExpr); ok && b.Op == Star {
						s.products |= 1 << min(i, 63)
					}
				}
			}
		case *AssignExpr:
			bound(x.RHS)
		case *IndexExpr:
			fp.Index = true
		}
	})
}

// callee returns name's index in Callees, adding it first if it is new.
func (fp *Footprint) callee(name string) int {
	if i := slices.Index(fp.Callees, name); i >= 0 {
		return i
	}
	fp.Callees = append(fp.Callees, name)
	fp.shapes = append(fp.shapes, callShape{minArgs: noCall})
	return len(fp.Callees) - 1
}
