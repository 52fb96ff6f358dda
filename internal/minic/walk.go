package minic

import "slices"

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
// on: the calls it makes and four shapes of statement or expression. A
// checker that can tell from a footprint that it would do nothing in a
// function need not explore it (checker.Quieter).
type Footprint struct {
	// Callees are the distinct names the function calls, in first-call
	// order. A one-argument likely or unlikely is not a call: the
	// evaluator unwraps it without a call event. It still counts as the
	// right-hand side of an assignment or initializer, where a bind
	// callback sees the call's syntax.
	Callees []string
	// UninitDecl: a local declared without an initializer, not an array.
	UninitDecl bool
	// UninitCleanup: such a declaration with a __free cleanup.
	UninitCleanup bool
	// Compare: a < > <= >= == != operator, including the case tests the
	// parser's switch desugaring builds.
	Compare bool
	// Index: an index expression.
	Index bool
}

// Calls reports whether the footprint's function calls name.
func (fp *Footprint) Calls(name string) bool { return slices.Contains(fp.Callees, name) }

// Reset makes fp the footprint of fn, reusing its callee slice.
func (fp *Footprint) Reset(fn *FuncDecl) {
	*fp = Footprint{Callees: fp.Callees[:0]}
	bound := func(rhs Expr) {
		if c, ok := Unparen(rhs).(*CallExpr); ok {
			fp.addCallee(c.Fun)
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
				fp.addCallee(x.Fun)
			}
		case *AssignExpr:
			bound(x.RHS)
		case *BinaryExpr:
			switch x.Op {
			case Lt, Gt, Le, Ge, EqEq, NotEq:
				fp.Compare = true
			}
		case *IndexExpr:
			fp.Index = true
		}
	})
}

func (fp *Footprint) addCallee(name string) {
	if !fp.Calls(name) {
		fp.Callees = append(fp.Callees, name)
	}
}
