package minic

import (
	"fmt"
	"strings"
)

// FormatFile renders the file back to mini-C source. The output is
// canonical (tabs, one statement per line) so that diffing two versions of
// a function produces clean unified diffs.
func FormatFile(f *File) string {
	var sb strings.Builder
	for i, s := range f.Structs {
		if i > 0 {
			sb.WriteByte('\n')
		}
		printStruct(&sb, s)
	}
	if len(f.Structs) > 0 && (len(f.Globals) > 0 || len(f.Funcs) > 0) {
		sb.WriteByte('\n')
	}
	for _, g := range f.Globals {
		printDeclLine(&sb, g, 0)
	}
	if len(f.Globals) > 0 && len(f.Funcs) > 0 {
		sb.WriteByte('\n')
	}
	for i, fn := range f.Funcs {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(FormatFunc(fn))
	}
	return sb.String()
}

// FormatFunc renders a single function definition.
func FormatFunc(fn *FuncDecl) string {
	var sb strings.Builder
	if fn.Static {
		sb.WriteString("static ")
	}
	sb.WriteString(typeDecl(fn.Ret, fn.Name))
	sb.WriteByte('(')
	if len(fn.Params) == 0 {
		sb.WriteString("void")
	}
	for i, p := range fn.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(typeDecl(p.Type, p.Name))
	}
	sb.WriteString(")\n")
	printBlock(&sb, fn.Body, 0)
	return sb.String()
}

// FormatExpr renders a single expression.
func FormatExpr(e Expr) string {
	var sb strings.Builder
	printExpr(&sb, e)
	return sb.String()
}

func printStruct(sb *strings.Builder, s *StructDecl) {
	fmt.Fprintf(sb, "struct %s {\n", s.Name)
	for _, f := range s.Fields {
		sb.WriteByte('\t')
		sb.WriteString(typeDecl(f.Type, f.Name))
		if f.Type.IsArray() {
			fmt.Fprintf(sb, "[%d]", f.Type.ArrayLen)
		}
		sb.WriteString(";\n")
	}
	sb.WriteString("};\n")
}

// typeDecl renders "type name" with the pointer stars attached to the
// name, C-style.
func typeDecl(t Type, name string) string {
	base := t.Base
	if t.Unsigned && base != "int" {
		base = "unsigned " + base
	} else if t.Unsigned {
		base = "unsigned int"
	}
	stars := strings.Repeat("*", t.Stars)
	if name == "" {
		if stars != "" {
			return base + " " + stars
		}
		return base
	}
	return base + " " + stars + name
}

func indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteByte('\t')
	}
}

func printBlock(sb *strings.Builder, b *Block, depth int) {
	indent(sb, depth)
	sb.WriteString("{\n")
	for _, s := range b.Stmts {
		printStmt(sb, s, depth+1)
	}
	indent(sb, depth)
	sb.WriteString("}\n")
}

func printDeclLine(sb *strings.Builder, d *DeclStmt, depth int) {
	indent(sb, depth)
	sb.WriteString(typeDecl(d.Type, d.Name))
	if d.Type.IsArray() {
		fmt.Fprintf(sb, "[%d]", d.Type.ArrayLen)
	}
	if d.Cleanup != "" {
		fmt.Fprintf(sb, " __free(%s)", d.Cleanup)
	}
	if d.Init != nil {
		sb.WriteString(" = ")
		printExpr(sb, d.Init)
	}
	sb.WriteString(";\n")
}

func printStmt(sb *strings.Builder, s Stmt, depth int) {
	switch st := s.(type) {
	case *Block:
		if len(st.Stmts) == 0 {
			indent(sb, depth)
			sb.WriteString(";\n")
			return
		}
		printBlock(sb, st, depth)
	case *DeclStmt:
		printDeclLine(sb, st, depth)
	case *ExprStmt:
		indent(sb, depth)
		printExpr(sb, st.X)
		sb.WriteString(";\n")
	case *IfStmt:
		indent(sb, depth)
		sb.WriteString("if (")
		printExpr(sb, st.Cond)
		sb.WriteString(")\n")
		printSubStmt(sb, st.Then, depth)
		if st.Else != nil {
			indent(sb, depth)
			sb.WriteString("else\n")
			printSubStmt(sb, st.Else, depth)
		}
	case *WhileStmt:
		indent(sb, depth)
		sb.WriteString("while (")
		printExpr(sb, st.Cond)
		sb.WriteString(")\n")
		printSubStmt(sb, st.Body, depth)
	case *ForStmt:
		indent(sb, depth)
		sb.WriteString("for (")
		switch init := st.Init.(type) {
		case nil:
			sb.WriteString(";")
		case *DeclStmt:
			sb.WriteString(typeDecl(init.Type, init.Name))
			if init.Init != nil {
				sb.WriteString(" = ")
				printExpr(sb, init.Init)
			}
			sb.WriteString(";")
		case *ExprStmt:
			printExpr(sb, init.X)
			sb.WriteString(";")
		}
		sb.WriteString(" ")
		if st.Cond != nil {
			printExpr(sb, st.Cond)
		}
		sb.WriteString("; ")
		if st.Post != nil {
			printExpr(sb, st.Post)
		}
		sb.WriteString(")\n")
		printSubStmt(sb, st.Body, depth)
	case *ReturnStmt:
		indent(sb, depth)
		sb.WriteString("return")
		if st.X != nil {
			sb.WriteByte(' ')
			printExpr(sb, st.X)
		}
		sb.WriteString(";\n")
	case *GotoStmt:
		indent(sb, depth)
		fmt.Fprintf(sb, "goto %s;\n", st.Label)
	case *LabeledStmt:
		// Labels outdent one level, kernel style.
		if depth > 0 {
			indent(sb, depth-1)
		}
		fmt.Fprintf(sb, "%s:\n", st.Label)
		if st.Stmt != nil {
			printStmt(sb, st.Stmt, depth)
		}
	case *BreakStmt:
		indent(sb, depth)
		sb.WriteString("break;\n")
	case *ContinueStmt:
		indent(sb, depth)
		sb.WriteString("continue;\n")
	default:
		panic(fmt.Sprintf("minic: unknown statement %T", s))
	}
}

// printSubStmt prints the body of an if/while/for: blocks inline, other
// statements indented one level.
func printSubStmt(sb *strings.Builder, s Stmt, depth int) {
	if b, ok := s.(*Block); ok {
		printBlock(sb, b, depth)
		return
	}
	printStmt(sb, s, depth+1)
}

var opText = map[Kind]string{
	AmpAmp: "&&", PipePipe: "||", Pipe: "|", Caret: "^", Amp: "&",
	EqEq: "==", NotEq: "!=", Lt: "<", Gt: ">", Le: "<=", Ge: ">=",
	Shl: "<<", Shr: ">>", Plus: "+", Minus: "-", Star: "*", Slash: "/",
	Percent: "%", Bang: "!", Tilde: "~", Inc: "++", Dec: "--",
	Assign: "=", PlusEq: "+=", MinusEq: "-=", StarEq: "*=", SlashEq: "/=",
	OrEq: "|=", AndEq: "&=",
}

func printExpr(sb *strings.Builder, e Expr) {
	switch ex := e.(type) {
	case *Ident:
		sb.WriteString(ex.Name)
	case *IntLit:
		if ex.Text != "" {
			sb.WriteString(ex.Text)
		} else {
			fmt.Fprintf(sb, "%d", ex.Val)
		}
	case *StrLit:
		fmt.Fprintf(sb, "\"%s\"", ex.Val)
	case *CharLit:
		fmt.Fprintf(sb, "'%s'", ex.Val)
	case *CallExpr:
		sb.WriteString(ex.Fun)
		sb.WriteByte('(')
		for i, a := range ex.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, a)
		}
		sb.WriteByte(')')
	case *UnaryExpr:
		sb.WriteString(opText[ex.Op])
		printOperand(sb, ex.X)
	case *PostfixExpr:
		printOperand(sb, ex.X)
		sb.WriteString(opText[ex.Op])
	case *BinaryExpr:
		printOperand(sb, ex.X)
		sb.WriteByte(' ')
		sb.WriteString(opText[ex.Op])
		sb.WriteByte(' ')
		printOperand(sb, ex.Y)
	case *AssignExpr:
		printExpr(sb, ex.LHS)
		sb.WriteByte(' ')
		sb.WriteString(opText[ex.Op])
		sb.WriteByte(' ')
		printExpr(sb, ex.RHS)
	case *IndexExpr:
		printOperand(sb, ex.X)
		sb.WriteByte('[')
		printExpr(sb, ex.Idx)
		sb.WriteByte(']')
	case *MemberExpr:
		printOperand(sb, ex.X)
		if ex.Arrow {
			sb.WriteString("->")
		} else {
			sb.WriteByte('.')
		}
		sb.WriteString(ex.Name)
	case *ParenExpr:
		sb.WriteByte('(')
		printExpr(sb, ex.X)
		sb.WriteByte(')')
	case *SizeofExpr:
		sb.WriteString("sizeof(")
		if ex.Type != nil {
			sb.WriteString(typeDecl(*ex.Type, ""))
		} else {
			printExpr(sb, ex.X)
		}
		sb.WriteByte(')')
	case *CastExpr:
		sb.WriteByte('(')
		sb.WriteString(typeDecl(ex.Type, ""))
		sb.WriteByte(')')
		printOperand(sb, ex.X)
	case *CondExpr:
		printOperand(sb, ex.Cond)
		sb.WriteString(" ? ")
		printExpr(sb, ex.Then)
		sb.WriteString(" : ")
		printExpr(sb, ex.Else)
	default:
		panic(fmt.Sprintf("minic: unknown expression %T", e))
	}
}

// printOperand wraps compound sub-expressions in parentheses so the
// printed form re-parses with the same structure regardless of the
// original precedence context.
func printOperand(sb *strings.Builder, e Expr) {
	switch e.(type) {
	case *Ident, *IntLit, *StrLit, *CharLit, *CallExpr, *ParenExpr,
		*SizeofExpr, *IndexExpr, *MemberExpr:
		printExpr(sb, e)
	default:
		sb.WriteByte('(')
		printExpr(sb, e)
		sb.WriteByte(')')
	}
}
