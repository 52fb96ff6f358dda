package minic

import (
	"fmt"
	"strconv"
	"sync"
)

// printer appends canonical mini-C source to buf. The Append functions
// run one over the caller's buffer; the Format functions run a pooled
// one, so the string they return is all they allocate.
type printer struct{ buf []byte }

func (p *printer) str(s string) { p.buf = append(p.buf, s...) }
func (p *printer) ch(c byte)    { p.buf = append(p.buf, c) }
func (p *printer) num(n int64)  { p.buf = strconv.AppendInt(p.buf, n, 10) }

var printers = sync.Pool{New: func() any { return new(printer) }}

// formatted returns what p printed as a string and puts p back.
func formatted(p *printer) string {
	s := string(p.buf)
	p.buf = p.buf[:0]
	printers.Put(p)
	return s
}

// FormatFile renders the file back to mini-C source. The output is
// canonical (tabs, one statement per line) so that diffing two versions of
// a function produces clean unified diffs.
func FormatFile(f *File) string {
	p := printers.Get().(*printer)
	p.file(f)
	return formatted(p)
}

// AppendFile appends FormatFile(f) to dst and returns the extended
// buffer.
func AppendFile(dst []byte, f *File) []byte {
	p := printer{buf: dst}
	p.file(f)
	return p.buf
}

// FormatFunc renders a single function definition.
func FormatFunc(fn *FuncDecl) string {
	p := printers.Get().(*printer)
	p.funcDecl(fn)
	return formatted(p)
}

// AppendFunc appends FormatFunc(fn) to dst and returns the extended
// buffer.
func AppendFunc(dst []byte, fn *FuncDecl) []byte {
	p := printer{buf: dst}
	p.funcDecl(fn)
	return p.buf
}

// FormatExpr renders a single expression.
func FormatExpr(e Expr) string {
	p := printers.Get().(*printer)
	p.expr(e)
	return formatted(p)
}

func (p *printer) file(f *File) {
	for i, s := range f.Structs {
		if i > 0 {
			p.ch('\n')
		}
		p.structDecl(s)
	}
	if len(f.Structs) > 0 && (len(f.Globals) > 0 || len(f.Funcs) > 0) {
		p.ch('\n')
	}
	for _, g := range f.Globals {
		p.declLine(g, 0)
	}
	if len(f.Globals) > 0 && len(f.Funcs) > 0 {
		p.ch('\n')
	}
	for i, fn := range f.Funcs {
		if i > 0 {
			p.ch('\n')
		}
		p.funcDecl(fn)
	}
}

func (p *printer) funcDecl(fn *FuncDecl) {
	if fn.Static {
		p.str("static ")
	}
	p.typeDecl(fn.Ret, fn.Name)
	p.ch('(')
	if len(fn.Params) == 0 {
		p.str("void")
	}
	for i, prm := range fn.Params {
		if i > 0 {
			p.str(", ")
		}
		p.typeDecl(prm.Type, prm.Name)
	}
	p.str(")\n")
	p.block(fn.Body, 0)
}

func (p *printer) structDecl(s *StructDecl) {
	p.str("struct ")
	p.str(s.Name)
	p.str(" {\n")
	for _, f := range s.Fields {
		p.ch('\t')
		p.typeDecl(f.Type, f.Name)
		p.arrayLen(f.Type)
		p.str(";\n")
	}
	p.str("};\n")
}

// typeDecl renders "type name" with the pointer stars attached to the
// name, C-style; with no name, "type" and its stars after a space.
func (p *printer) typeDecl(t Type, name string) {
	switch {
	case t.Unsigned && t.Base == "int":
		p.str("unsigned int")
	case t.Unsigned:
		p.str("unsigned ")
		p.str(t.Base)
	default:
		p.str(t.Base)
	}
	if name == "" && t.Stars == 0 {
		return
	}
	p.ch(' ')
	for range t.Stars {
		p.ch('*')
	}
	p.str(name)
}

func (p *printer) arrayLen(t Type) {
	if t.IsArray() {
		p.ch('[')
		p.num(int64(t.ArrayLen))
		p.ch(']')
	}
}

func (p *printer) indent(depth int) {
	for range depth {
		p.ch('\t')
	}
}

func (p *printer) block(b *Block, depth int) {
	p.indent(depth)
	p.str("{\n")
	for _, s := range b.Stmts {
		p.stmt(s, depth+1)
	}
	p.indent(depth)
	p.str("}\n")
}

func (p *printer) declLine(d *DeclStmt, depth int) {
	p.indent(depth)
	p.typeDecl(d.Type, d.Name)
	p.arrayLen(d.Type)
	if d.Cleanup != "" {
		p.str(" __free(")
		p.str(d.Cleanup)
		p.ch(')')
	}
	if d.Init != nil {
		p.str(" = ")
		p.expr(d.Init)
	}
	p.str(";\n")
}

func (p *printer) stmt(s Stmt, depth int) {
	switch st := s.(type) {
	case *Block:
		if len(st.Stmts) == 0 {
			p.indent(depth)
			p.str(";\n")
			return
		}
		p.block(st, depth)
	case *DeclStmt:
		p.declLine(st, depth)
	case *ExprStmt:
		p.indent(depth)
		p.expr(st.X)
		p.str(";\n")
	case *IfStmt:
		p.indent(depth)
		p.str("if (")
		p.expr(st.Cond)
		p.str(")\n")
		p.subStmt(st.Then, depth)
		if st.Else != nil {
			p.indent(depth)
			p.str("else\n")
			p.subStmt(st.Else, depth)
		}
	case *WhileStmt:
		p.indent(depth)
		p.str("while (")
		p.expr(st.Cond)
		p.str(")\n")
		p.subStmt(st.Body, depth)
	case *ForStmt:
		p.indent(depth)
		p.str("for (")
		switch init := st.Init.(type) {
		case nil:
			p.str(";")
		case *DeclStmt:
			p.typeDecl(init.Type, init.Name)
			if init.Init != nil {
				p.str(" = ")
				p.expr(init.Init)
			}
			p.str(";")
		case *ExprStmt:
			p.expr(init.X)
			p.str(";")
		}
		p.str(" ")
		if st.Cond != nil {
			p.expr(st.Cond)
		}
		p.str("; ")
		if st.Post != nil {
			p.expr(st.Post)
		}
		p.str(")\n")
		p.subStmt(st.Body, depth)
	case *ReturnStmt:
		p.indent(depth)
		p.str("return")
		if st.X != nil {
			p.ch(' ')
			p.expr(st.X)
		}
		p.str(";\n")
	case *GotoStmt:
		p.indent(depth)
		p.str("goto ")
		p.str(st.Label)
		p.str(";\n")
	case *LabeledStmt:
		// Labels outdent one level, kernel style.
		if depth > 0 {
			p.indent(depth - 1)
		}
		p.str(st.Label)
		p.str(":\n")
		if st.Stmt != nil {
			p.stmt(st.Stmt, depth)
		}
	case *BreakStmt:
		p.indent(depth)
		p.str("break;\n")
	case *ContinueStmt:
		p.indent(depth)
		p.str("continue;\n")
	default:
		panic(fmt.Sprintf("minic: unknown statement %T", s))
	}
}

// subStmt prints the body of an if/while/for: blocks inline, other
// statements indented one level.
func (p *printer) subStmt(s Stmt, depth int) {
	if b, ok := s.(*Block); ok {
		p.block(b, depth)
		return
	}
	p.stmt(s, depth+1)
}

var opText = map[Kind]string{
	AmpAmp: "&&", PipePipe: "||", Pipe: "|", Caret: "^", Amp: "&",
	EqEq: "==", NotEq: "!=", Lt: "<", Gt: ">", Le: "<=", Ge: ">=",
	Shl: "<<", Shr: ">>", Plus: "+", Minus: "-", Star: "*", Slash: "/",
	Percent: "%", Bang: "!", Tilde: "~", Inc: "++", Dec: "--",
	Assign: "=", PlusEq: "+=", MinusEq: "-=", StarEq: "*=", SlashEq: "/=",
	OrEq: "|=", AndEq: "&=",
}

func (p *printer) expr(e Expr) {
	switch ex := e.(type) {
	case *Ident:
		p.str(ex.Name)
	case *IntLit:
		if ex.Text != "" {
			p.str(ex.Text)
		} else {
			p.num(ex.Val)
		}
	case *StrLit:
		p.ch('"')
		p.str(ex.Val)
		p.ch('"')
	case *CharLit:
		p.ch('\'')
		p.str(ex.Val)
		p.ch('\'')
	case *CallExpr:
		p.str(ex.Fun)
		p.ch('(')
		for i, a := range ex.Args {
			if i > 0 {
				p.str(", ")
			}
			p.expr(a)
		}
		p.ch(')')
	case *UnaryExpr:
		p.str(opText[ex.Op])
		p.operand(ex.X)
	case *PostfixExpr:
		p.operand(ex.X)
		p.str(opText[ex.Op])
	case *BinaryExpr:
		p.operand(ex.X)
		p.ch(' ')
		p.str(opText[ex.Op])
		p.ch(' ')
		p.operand(ex.Y)
	case *AssignExpr:
		p.expr(ex.LHS)
		p.ch(' ')
		p.str(opText[ex.Op])
		p.ch(' ')
		p.expr(ex.RHS)
	case *IndexExpr:
		p.operand(ex.X)
		p.ch('[')
		p.expr(ex.Idx)
		p.ch(']')
	case *MemberExpr:
		p.operand(ex.X)
		if ex.Arrow {
			p.str("->")
		} else {
			p.ch('.')
		}
		p.str(ex.Name)
	case *ParenExpr:
		p.ch('(')
		p.expr(ex.X)
		p.ch(')')
	case *SizeofExpr:
		p.str("sizeof(")
		if ex.Type != nil {
			p.typeDecl(*ex.Type, "")
		} else {
			p.expr(ex.X)
		}
		p.ch(')')
	case *CastExpr:
		p.ch('(')
		p.typeDecl(ex.Type, "")
		p.ch(')')
		p.operand(ex.X)
	case *CondExpr:
		p.operand(ex.Cond)
		p.str(" ? ")
		p.expr(ex.Then)
		p.str(" : ")
		p.expr(ex.Else)
	default:
		panic(fmt.Sprintf("minic: unknown expression %T", e))
	}
}

// operand wraps compound sub-expressions in parentheses so the printed
// form re-parses with the same structure regardless of the original
// precedence context.
func (p *printer) operand(e Expr) {
	switch e.(type) {
	case *Ident, *IntLit, *StrLit, *CharLit, *CallExpr, *ParenExpr,
		*SizeofExpr, *IndexExpr, *MemberExpr:
		p.expr(e)
	default:
		p.ch('(')
		p.expr(e)
		p.ch(')')
	}
}
