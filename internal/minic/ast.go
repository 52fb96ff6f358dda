package minic

import "math"

// Node is the common interface of all AST nodes.
type Node interface {
	NodePos() Pos
}

// Type is a (simplified) mini-C type: a base name, a pointer depth, and an
// optional fixed array length. Examples:
//
//	int            -> {Base: "int"}
//	struct foo *   -> {Base: "struct foo", Stars: 1}
//	char buf[64]   -> {Base: "char", ArrayLen: 64}
type Type struct {
	Base     string // "int", "char", "void", "size_t", "struct foo", ...
	Stars    int    // pointer depth
	ArrayLen int    // >0 for fixed arrays, 0 otherwise
	Unsigned bool
}

// IsPointer reports whether the type has pointer depth >= 1.
func (t Type) IsPointer() bool { return t.Stars > 0 }

// IsArray reports whether the type is a fixed-size array.
func (t Type) IsArray() bool { return t.ArrayLen > 0 }

// String renders the type in C syntax (arrays render only the element
// part; the declarator carries the [N]).
func (t Type) String() string {
	s := t.Base
	if t.Unsigned {
		s = "unsigned " + s
	}
	for i := 0; i < t.Stars; i++ {
		s += " *"
	}
	return s
}

// File is a parsed translation unit.
type File struct {
	Name    string
	Structs []*StructDecl
	Globals []*DeclStmt
	Funcs   []*FuncDecl
}

// LookupFunc returns the function with the given name, or nil.
func (f *File) LookupFunc(name string) *FuncDecl {
	for _, fn := range f.Funcs {
		if fn.Name == name {
			return fn
		}
	}
	return nil
}

// StructDecl is a struct definition.
type StructDecl struct {
	Name   string
	Fields []*Field
	Pos    Pos
}

// NodePos implements Node.
func (d *StructDecl) NodePos() Pos { return d.Pos }

// Field is a single struct member.
type Field struct {
	Type Type
	Name string
	Pos  Pos
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Static bool
	Ret    Type
	Name   string
	Params []*Param
	Body   *Block
	Pos    Pos
}

// NodePos implements Node.
func (d *FuncDecl) NodePos() Pos { return d.Pos }

// Param is a formal function parameter.
type Param struct {
	Type Type
	Name string
	Pos  Pos
}

// --- Statements ---

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Block is a { ... } statement list.
type Block struct {
	Stmts []Stmt
	Pos   Pos
}

// DeclStmt declares a single local variable, optionally initialized and
// optionally carrying a kernel-style __free(fn) cleanup attribute.
type DeclStmt struct {
	Type    Type
	Name    string
	Init    Expr   // may be nil
	Cleanup string // "" or the __free() cleanup function name
	Pos     Pos
}

// ExprStmt wraps an expression evaluated for effect.
type ExprStmt struct {
	X   Expr
	Pos Pos
}

// IfStmt is a conditional with optional else branch.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
	Pos  Pos
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body Stmt
	Pos  Pos
}

// ForStmt is a C-style for loop; any of Init/Cond/Post may be nil.
type ForStmt struct {
	Init Stmt // DeclStmt or ExprStmt, may be nil
	Cond Expr
	Post Expr
	Body Stmt
	Pos  Pos
}

// ReturnStmt returns from the function; X may be nil.
type ReturnStmt struct {
	X   Expr
	Pos Pos
}

// GotoStmt transfers control to a label.
type GotoStmt struct {
	Label string
	Pos   Pos
}

// LabeledStmt attaches a label to a statement (the statement may be nil
// when the label directly precedes '}').
type LabeledStmt struct {
	Label string
	Stmt  Stmt // may be nil
	Pos   Pos
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos Pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos Pos }

// NodePos implements Node.
func (s *Block) NodePos() Pos { return s.Pos }

// NodePos implements Node.
func (s *DeclStmt) NodePos() Pos { return s.Pos }

// NodePos implements Node.
func (s *ExprStmt) NodePos() Pos { return s.Pos }

// NodePos implements Node.
func (s *IfStmt) NodePos() Pos { return s.Pos }

// NodePos implements Node.
func (s *WhileStmt) NodePos() Pos { return s.Pos }

// NodePos implements Node.
func (s *ForStmt) NodePos() Pos { return s.Pos }

// NodePos implements Node.
func (s *ReturnStmt) NodePos() Pos { return s.Pos }

// NodePos implements Node.
func (s *GotoStmt) NodePos() Pos { return s.Pos }

// NodePos implements Node.
func (s *LabeledStmt) NodePos() Pos { return s.Pos }

// NodePos implements Node.
func (s *BreakStmt) NodePos() Pos { return s.Pos }

// NodePos implements Node.
func (s *ContinueStmt) NodePos() Pos { return s.Pos }

func (*Block) stmtNode()        {}
func (*DeclStmt) stmtNode()     {}
func (*ExprStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*ReturnStmt) stmtNode()   {}
func (*GotoStmt) stmtNode()     {}
func (*LabeledStmt) stmtNode()  {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}

// --- Expressions ---

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Ident is a variable or symbolic-constant reference.
type Ident struct {
	Name string
	Pos  Pos
}

// IntLit is an integer literal; Val holds the parsed value and Text the
// original spelling (to preserve hex forms when printing).
type IntLit struct {
	Val  int64
	Text string
	Pos  Pos
}

// StrLit is a string literal (unquoted text).
type StrLit struct {
	Val string
	Pos Pos
}

// CharLit is a character literal (unquoted text).
type CharLit struct {
	Val string
	Pos Pos
}

// CallExpr is a direct call fun(args...).
type CallExpr struct {
	Fun  string
	Args []Expr
	Pos  Pos
}

// UnaryExpr is a prefix operation: ! - ~ * & ++ --.
type UnaryExpr struct {
	Op  Kind
	X   Expr
	Pos Pos
}

// PostfixExpr is x++ or x--.
type PostfixExpr struct {
	Op  Kind // Inc or Dec
	X   Expr
	Pos Pos
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   Kind
	X, Y Expr
	Pos  Pos
}

// AssignExpr is an assignment (possibly compound: +=, -=, ...).
type AssignExpr struct {
	Op  Kind // Assign, PlusEq, ...
	LHS Expr
	RHS Expr
	Pos Pos
}

// IndexExpr is x[i].
type IndexExpr struct {
	X   Expr
	Idx Expr
	Pos Pos
}

// MemberExpr is x.name or x->name.
type MemberExpr struct {
	X     Expr
	Name  string
	Arrow bool
	Pos   Pos
}

// ParenExpr is a parenthesized expression.
type ParenExpr struct {
	X   Expr
	Pos Pos
}

// SizeofExpr is sizeof(type) or sizeof(expr). Exactly one of Type/X is set.
type SizeofExpr struct {
	Type *Type // sizeof(type) form
	X    Expr  // sizeof expr form
	Pos  Pos
}

// CastExpr is (type)expr.
type CastExpr struct {
	Type Type
	X    Expr
	Pos  Pos
}

// CondExpr is the ternary cond ? then : else.
type CondExpr struct {
	Cond, Then, Else Expr
	Pos              Pos
}

// NodePos implements Node.
func (e *Ident) NodePos() Pos { return e.Pos }

// NodePos implements Node.
func (e *IntLit) NodePos() Pos { return e.Pos }

// NodePos implements Node.
func (e *StrLit) NodePos() Pos { return e.Pos }

// NodePos implements Node.
func (e *CharLit) NodePos() Pos { return e.Pos }

// NodePos implements Node.
func (e *CallExpr) NodePos() Pos { return e.Pos }

// NodePos implements Node.
func (e *UnaryExpr) NodePos() Pos { return e.Pos }

// NodePos implements Node.
func (e *PostfixExpr) NodePos() Pos { return e.Pos }

// NodePos implements Node.
func (e *BinaryExpr) NodePos() Pos { return e.Pos }

// NodePos implements Node.
func (e *AssignExpr) NodePos() Pos { return e.Pos }

// NodePos implements Node.
func (e *IndexExpr) NodePos() Pos { return e.Pos }

// NodePos implements Node.
func (e *MemberExpr) NodePos() Pos { return e.Pos }

// NodePos implements Node.
func (e *ParenExpr) NodePos() Pos { return e.Pos }

// NodePos implements Node.
func (e *SizeofExpr) NodePos() Pos { return e.Pos }

// NodePos implements Node.
func (e *CastExpr) NodePos() Pos { return e.Pos }

// NodePos implements Node.
func (e *CondExpr) NodePos() Pos { return e.Pos }

func (*Ident) exprNode()       {}
func (*IntLit) exprNode()      {}
func (*StrLit) exprNode()      {}
func (*CharLit) exprNode()     {}
func (*CallExpr) exprNode()    {}
func (*UnaryExpr) exprNode()   {}
func (*PostfixExpr) exprNode() {}
func (*BinaryExpr) exprNode()  {}
func (*AssignExpr) exprNode()  {}
func (*IndexExpr) exprNode()   {}
func (*MemberExpr) exprNode()  {}
func (*ParenExpr) exprNode()   {}
func (*SizeofExpr) exprNode()  {}
func (*CastExpr) exprNode()    {}
func (*CondExpr) exprNode()    {}

// constants models the kernel macro constants the corpus uses so that
// error-path expressions like -ENOMEM fold to concrete values.
var constants = map[string]int64{
	"NULL": 0, "true": 1, "false": 0,
	"ENOMEM": 12, "EINVAL": 22, "EFAULT": 14, "EBUSY": 16, "ENODEV": 19,
	"EIO": 5, "EAGAIN": 11, "ENOSPC": 28, "EPERM": 1, "ERANGE": 34,
	"GFP_KERNEL": 3264, "GFP_ATOMIC": 2080, "GFP_NOWAIT": 2048,
	"U8_MAX": 0xFF, "U16_MAX": 0xFFFF, "U32_MAX": 0xFFFFFFFF,
	"INT_MAX": math.MaxInt32, "PAGE_SIZE": 4096, "SZ_4K": 4096,
}

// Constant returns the value of a named kernel macro constant: an
// identifier spelled so evaluates to it, not to a variable.
func Constant(name string) (int64, bool) {
	c, ok := constants[name]
	return c, ok
}

// Unparen strips any number of ParenExpr wrappers.
func Unparen(e Expr) Expr {
	for {
		p, ok := e.(*ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// UnwrapCalls strips ParenExpr wrappers and single-argument calls to the
// named wrapper functions (e.g. unlikely/likely). It is the AST-side
// analog of a checker "seeing through" kernel annotation macros.
func UnwrapCalls(e Expr, wrappers ...string) Expr {
	for {
		e = Unparen(e)
		c, ok := e.(*CallExpr)
		if !ok || len(c.Args) != 1 {
			return e
		}
		found := false
		for _, w := range wrappers {
			if c.Fun == w {
				found = true
				break
			}
		}
		if !found {
			return e
		}
		e = c.Args[0]
	}
}
