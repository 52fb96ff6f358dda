package minic

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// stripPos recursively clears all Pos fields so that structural equality
// between an AST and its print→reparse round-trip can be checked.
func stripPos(v reflect.Value) {
	switch v.Kind() {
	case reflect.Ptr:
		if !v.IsNil() {
			stripPos(v.Elem())
		}
	case reflect.Interface:
		if !v.IsNil() {
			stripPos(v.Elem())
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(Pos{}) {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			stripPos(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			stripPos(v.Index(i))
		}
	}
}

func normalized(f *File) *File {
	stripPos(reflect.ValueOf(f))
	return f
}

func roundTrip(t *testing.T, src string) {
	t.Helper()
	f1, err := ParseFile("rt.c", src)
	if err != nil {
		t.Fatalf("parse original: %v\n%s", err, src)
	}
	out := FormatFile(f1)
	f2, err := ParseFile("rt.c", out)
	if err != nil {
		t.Fatalf("parse printed: %v\n--- printed ---\n%s", err, out)
	}
	// Printing the reparsed AST must be a fixed point.
	out2 := FormatFile(f2)
	if out != out2 {
		t.Fatalf("print not idempotent:\n--- first ---\n%s\n--- second ---\n%s", out, out2)
	}
}

func TestRoundTripKernelish(t *testing.T) { roundTrip(t, kernelishSrc) }

func TestRoundTripConstructs(t *testing.T) {
	srcs := []string{
		"int f(void)\n{\n\treturn (a + b) * c;\n}\n",
		"int f(int x)\n{\n\tif (x == 0)\n\t\treturn -1;\n\telse if (x > 10)\n\t\treturn 1;\n\treturn 0;\n}\n",
		"void f(void)\n{\n\tchar buf[64];\n\tmemset(buf, 0, sizeof(buf));\n\tbuf[0] = 'x';\n}\n",
		"void f(struct dev *d)\n{\n\td->priv->count += 1;\n\t(*d).x = 0;\n}\n",
		"int f(int n)\n{\n\tint s = 0;\n\tfor (int i = 0; i < n; i++)\n\t\ts += i;\n\treturn s;\n}\n",
		"int f(size_t n)\n{\n\treturn n > 0 ? 1 : 0;\n}\n",
		"void f(void)\n{\n\tu32 v = (u32)get();\n\tput(v << 8 | 3);\n}\n",
		"int f(int a)\n{\n\twhile (a > 0) {\n\t\ta--;\n\t\tif (a == 3)\n\t\t\tbreak;\n\t\tcontinue;\n\t}\n\treturn a;\n}\n",
		"void f(struct p *q)\n{\n\tstruct p *alias __free(kfree) = q;\n\tuse(alias);\n}\n",
		// A typedef name used as an identifier prints inside parentheses
		// that must not re-parse as a cast.
		"void f(void)\n{\n\tx = 0 & u8 % 2;\n\ty = (u8 const *)p;\n}\n",
	}
	for _, src := range srcs {
		roundTrip(t, src)
	}
}

// --- randomized round-trip property test ---

type astGen struct{ r *rand.Rand }

func (g *astGen) ident() string {
	names := []string{"a", "b", "ptr", "dev", "buf", "len", "ret", "idx", "tmp"}
	return names[g.r.Intn(len(names))]
}

func (g *astGen) expr(depth int) Expr {
	if depth <= 0 {
		switch g.r.Intn(3) {
		case 0:
			return &Ident{Name: g.ident()}
		case 1:
			return &IntLit{Val: int64(g.r.Intn(100))}
		default:
			return &StrLit{Val: "msg"}
		}
	}
	switch g.r.Intn(8) {
	case 0:
		ops := []Kind{Plus, Minus, Star, Slash, AmpAmp, PipePipe, EqEq, NotEq, Lt, Shl, Amp, Pipe}
		return &BinaryExpr{Op: ops[g.r.Intn(len(ops))], X: g.expr(depth - 1), Y: g.expr(depth - 1)}
	case 1:
		ops := []Kind{Bang, Minus, Tilde, Star, Amp}
		return &UnaryExpr{Op: ops[g.r.Intn(len(ops))], X: g.expr(depth - 1)}
	case 2:
		n := g.r.Intn(3)
		c := &CallExpr{Fun: "fn_" + g.ident()}
		for i := 0; i < n; i++ {
			c.Args = append(c.Args, g.expr(depth-1))
		}
		return c
	case 3:
		return &MemberExpr{X: &Ident{Name: g.ident()}, Name: g.ident(), Arrow: g.r.Intn(2) == 0}
	case 4:
		return &IndexExpr{X: &Ident{Name: g.ident()}, Idx: g.expr(depth - 1)}
	case 5:
		return &CondExpr{Cond: g.expr(depth - 1), Then: g.expr(depth - 1), Else: g.expr(depth - 1)}
	case 6:
		return &SizeofExpr{X: &Ident{Name: g.ident()}}
	default:
		return &Ident{Name: g.ident()}
	}
}

func (g *astGen) stmt(depth int) Stmt {
	if depth <= 0 {
		return &ExprStmt{X: &AssignExpr{Op: Assign, LHS: &Ident{Name: g.ident()}, RHS: g.expr(1)}}
	}
	switch g.r.Intn(6) {
	case 0:
		return &IfStmt{Cond: g.expr(depth - 1), Then: g.block(depth - 1), Else: g.block(depth - 1)}
	case 1:
		return &ReturnStmt{X: g.expr(depth - 1)}
	case 2:
		return &DeclStmt{Type: Type{Base: "int"}, Name: "v" + g.ident(), Init: g.expr(depth - 1)}
	case 3:
		return &WhileStmt{Cond: g.expr(depth - 1), Body: g.block(depth - 1)}
	case 4:
		return &ExprStmt{X: &CallExpr{Fun: "do_" + g.ident(), Args: []Expr{g.expr(depth - 1)}}}
	default:
		return &ExprStmt{X: &AssignExpr{Op: Assign, LHS: &Ident{Name: g.ident()}, RHS: g.expr(depth - 1)}}
	}
}

func (g *astGen) block(depth int) *Block {
	b := &Block{}
	n := 1 + g.r.Intn(3)
	for i := 0; i < n; i++ {
		b.Stmts = append(b.Stmts, g.stmt(depth))
	}
	return b
}

// TestRoundTripRandomASTs is a property test: for randomly generated ASTs,
// print → parse → print must be a fixed point and the reparsed AST must be
// structurally identical (modulo positions and literal spellings).
func TestRoundTripRandomASTs(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := &astGen{r: rand.New(rand.NewSource(seed))}
		fn := &FuncDecl{
			Ret:    Type{Base: "int"},
			Name:   "synthetic",
			Params: []*Param{{Type: Type{Base: "int"}, Name: "n"}},
			Body:   g.block(3),
		}
		src := FormatFunc(fn)
		f2, err := ParseFile("gen.c", src)
		if err != nil {
			t.Fatalf("seed %d: reparse failed: %v\n%s", seed, err, src)
		}
		src2 := FormatFile(f2)
		if !strings.HasPrefix(src2, src[:len(src)-1]) && src != src2 {
			t.Fatalf("seed %d: print not stable\n--- 1 ---\n%s\n--- 2 ---\n%s", seed, src, src2)
		}
		f3, err := ParseFile("gen.c", src2)
		if err != nil {
			t.Fatalf("seed %d: second reparse failed: %v", seed, err)
		}
		if !reflect.DeepEqual(normalized(f2), normalized(f3)) {
			t.Fatalf("seed %d: ASTs differ after round trip\n%s", seed, src)
		}
	}
}

func TestFormatExprParens(t *testing.T) {
	// Structure must survive printing: (a+b)*c stays distinct from a+b*c.
	e1, _ := parseExpr("(a + b) * c")
	e2, _ := parseExpr("a + b * c")
	s1, s2 := FormatExpr(e1), FormatExpr(e2)
	r1, err := parseExpr(s1)
	if err != nil {
		t.Fatalf("reparse %q: %v", s1, err)
	}
	r2, err := parseExpr(s2)
	if err != nil {
		t.Fatalf("reparse %q: %v", s2, err)
	}
	top1 := r1.(*BinaryExpr)
	top2 := r2.(*BinaryExpr)
	if top1.Op != Star {
		t.Errorf("e1 top op = %v, want *", top1.Op)
	}
	if top2.Op != Plus {
		t.Errorf("e2 top op = %v, want +", top2.Op)
	}
}
