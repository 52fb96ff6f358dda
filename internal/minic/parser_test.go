package minic

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

const kernelishSrc = `
struct spi_bus {
	int irq;
	struct spi_sub *spi_int[8];
	char name[32];
};

static int pci1xxxx_spi_probe(struct pci_dev *pdev, int iter)
{
	struct spi_bus *spi_bus;
	struct spi_sub *spi_sub_ptr;
	int ret;

	spi_bus = devm_kzalloc(&pdev->dev, sizeof(struct spi_bus), GFP_KERNEL);
	if (!spi_bus)
		return -ENOMEM;
	spi_sub_ptr = spi_bus->spi_int[iter];
	if (spi_sub_ptr->irq < 0)
		goto err_free;
	for (int i = 0; i < 8; i++)
		spi_bus->spi_int[i] = 0;
	while (ret > 0)
		ret--;
	return 0;
err_free:
	kfree(spi_bus);
	return -EINVAL;
}
`

// parseFunc parses src, which must hold exactly one function (struct
// declarations before it are allowed).
func parseFunc(name, src string) (*FuncDecl, error) {
	f, err := ParseFile(name, src)
	if err != nil {
		return nil, err
	}
	if len(f.Funcs) != 1 {
		return nil, fmt.Errorf("expected exactly one function in %s, got %d", name, len(f.Funcs))
	}
	return f.Funcs[0], nil
}

// parseExpr parses a standalone expression.
func parseExpr(src string) (Expr, error) {
	p := newParser("<expr>", src)
	e, err := p.parseExpr()
	if err == nil && p.cur().Kind != EOF {
		err = p.errorf("unexpected %s after expression", p.cur())
	}
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return e, nil
}

// ReferenceParseFile is ParseFile as it stood before the parser pulled
// its tokens: it lexes the whole input first, returning the first
// lexical error, and only then parses the buffered stream.
// FuzzParseFile holds ParseFile to its files and errors.
func ReferenceParseFile(name, src string) (*File, error) {
	lx := NewLexer(name, src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			break
		}
	}
	// The buffered stream is the lookahead; the lexer, at its end,
	// answers EOF past it.
	p := &Parser{lx: *lx, ahead: toks}
	p.advance()
	return p.parseFile(name)
}

func TestParseKernelishFunction(t *testing.T) {
	f, err := ParseFile("probe.c", kernelishSrc)
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if len(f.Structs) != 1 || f.Structs[0].Name != "spi_bus" {
		t.Fatalf("structs = %+v", f.Structs)
	}
	if len(f.Structs[0].Fields) != 3 {
		t.Fatalf("fields = %d, want 3", len(f.Structs[0].Fields))
	}
	if f.Structs[0].Fields[1].Type.ArrayLen != 8 || f.Structs[0].Fields[1].Type.Stars != 1 {
		t.Errorf("spi_int type = %+v", f.Structs[0].Fields[1].Type)
	}
	fn := f.LookupFunc("pci1xxxx_spi_probe")
	if fn == nil {
		t.Fatal("function not found")
	}
	if !fn.Static {
		t.Error("expected static function")
	}
	if len(fn.Params) != 2 {
		t.Errorf("params = %d, want 2", len(fn.Params))
	}
	if fn.Params[0].Type.Base != "struct pci_dev" || fn.Params[0].Type.Stars != 1 {
		t.Errorf("param 0 type = %+v", fn.Params[0].Type)
	}
}

func TestParseDeclWithCleanup(t *testing.T) {
	src := `
int f(void)
{
	struct x509_certificate *cert __free(x509_free_certificate);
	struct ctx *c __free(kfree) = 0;
	return 0;
}
`
	fn, err := parseFunc("t.c", src)
	if err != nil {
		t.Fatalf("ParseFunc: %v", err)
	}
	d0 := fn.Body.Stmts[0].(*DeclStmt)
	if d0.Cleanup != "x509_free_certificate" || d0.Init != nil {
		t.Errorf("decl 0 = %+v", d0)
	}
	d1 := fn.Body.Stmts[1].(*DeclStmt)
	if d1.Cleanup != "kfree" || d1.Init == nil {
		t.Errorf("decl 1 = %+v", d1)
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := parseExpr("a + b * c == d && !e")
	if err != nil {
		t.Fatalf("ParseExpr: %v", err)
	}
	// Expect ((a + (b*c)) == d) && (!e)
	and, ok := e.(*BinaryExpr)
	if !ok || and.Op != AmpAmp {
		t.Fatalf("top = %T %v", e, e)
	}
	eq, ok := and.X.(*BinaryExpr)
	if !ok || eq.Op != EqEq {
		t.Fatalf("lhs = %T", and.X)
	}
	add, ok := eq.X.(*BinaryExpr)
	if !ok || add.Op != Plus {
		t.Fatalf("eq lhs = %T", eq.X)
	}
	mul, ok := add.Y.(*BinaryExpr)
	if !ok || mul.Op != Star {
		t.Fatalf("add rhs = %T", add.Y)
	}
	if _, ok := and.Y.(*UnaryExpr); !ok {
		t.Fatalf("rhs = %T", and.Y)
	}
}

func TestParseTernaryAndAssign(t *testing.T) {
	e, err := parseExpr("x = a > b ? a : b")
	if err != nil {
		t.Fatalf("ParseExpr: %v", err)
	}
	as, ok := e.(*AssignExpr)
	if !ok {
		t.Fatalf("top = %T", e)
	}
	if _, ok := as.RHS.(*CondExpr); !ok {
		t.Fatalf("rhs = %T", as.RHS)
	}
}

func TestParseCastAndSizeof(t *testing.T) {
	e, err := parseExpr("(struct foo *)p")
	if err != nil {
		t.Fatalf("cast: %v", err)
	}
	c, ok := e.(*CastExpr)
	if !ok || c.Type.Base != "struct foo" || c.Type.Stars != 1 {
		t.Fatalf("cast = %T %+v", e, e)
	}
	e, err = parseExpr("sizeof(struct foo)")
	if err != nil {
		t.Fatalf("sizeof type: %v", err)
	}
	sz, ok := e.(*SizeofExpr)
	if !ok || sz.Type == nil {
		t.Fatalf("sizeof = %T", e)
	}
	e, err = parseExpr("sizeof(mybuf)")
	if err != nil {
		t.Fatalf("sizeof expr: %v", err)
	}
	sz, ok = e.(*SizeofExpr)
	if !ok || sz.X == nil {
		t.Fatalf("sizeof = %T %+v", e, e)
	}
}

func TestParseMemberChains(t *testing.T) {
	e, err := parseExpr("adpt->phy.digital")
	if err != nil {
		t.Fatalf("ParseExpr: %v", err)
	}
	outer, ok := e.(*MemberExpr)
	if !ok || outer.Name != "digital" || outer.Arrow {
		t.Fatalf("outer = %+v", e)
	}
	inner, ok := outer.X.(*MemberExpr)
	if !ok || inner.Name != "phy" || !inner.Arrow {
		t.Fatalf("inner = %+v", outer.X)
	}
}

func TestParseGotoLabels(t *testing.T) {
	src := `
int f(int a)
{
	if (a)
		goto out;
	a = 1;
out:
	return a;
}
`
	fn, err := parseFunc("t.c", src)
	if err != nil {
		t.Fatalf("ParseFunc: %v", err)
	}
	found := false
	for _, s := range fn.Body.Stmts {
		if l, ok := s.(*LabeledStmt); ok && l.Label == "out" {
			found = true
			if _, ok := l.Stmt.(*ReturnStmt); !ok {
				t.Errorf("label stmt = %T", l.Stmt)
			}
		}
	}
	if !found {
		t.Error("label 'out' not found")
	}
}

func TestParseLabelAtBlockEnd(t *testing.T) {
	src := "void f(void)\n{\n\tgoto out;\nout:\n}\n"
	fn, err := parseFunc("t.c", src)
	if err != nil {
		t.Fatalf("ParseFunc: %v", err)
	}
	last := fn.Body.Stmts[len(fn.Body.Stmts)-1].(*LabeledStmt)
	if last.Stmt != nil {
		t.Errorf("trailing label stmt = %v", last.Stmt)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"int f( {}",
		"int f(void) { int; }",
		"int f(void) { return 0 }",
		"struct s { int x }",
		"int f(void) { if a) return 0; }",
		"int f(void) { x = ; }",
	}
	for _, src := range bad {
		if _, err := ParseFile("t.c", src); err == nil {
			t.Errorf("ParseFile(%q): expected error", src)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := ParseFile("bad.c", "int f(void) {\n\treturn 0\n}\n")
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type = %T", err)
	}
	if pe.Pos.File != "bad.c" || pe.Pos.Line != 3 {
		t.Errorf("pos = %v, want bad.c:3", pe.Pos)
	}
	if !strings.Contains(pe.Error(), "bad.c:3") {
		t.Errorf("error text = %q", pe.Error())
	}
}

// TestLexErrorWinsOverSyntaxError: the parser pulls its tokens, yet a
// lexical error anywhere in the input is the error, even after a syntax
// error, one met in lookahead, or one past an input that parsed up to it.
func TestLexErrorWinsOverSyntaxError(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"int f(void) { return 0 }\nint g(void) { return `; }", "t.c:2:22: unexpected character \"`\""},
		{"struct s { int x }\n/* open", "t.c:2:1: unterminated block comment"},
		{"int f(void) { return (u8 `) p; }", "t.c:1:26: unexpected character \"`\""},
		{"int f(void) { return 0; }\n\"open", "t.c:2:1: unterminated string literal"},
		{"int f(void) { return 0 }", "t.c:1:24: expected ;, found }"},
	} {
		_, err := ParseFile("t.c", c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("ParseFile(%q) = %v, want %s", c.src, err, c.want)
		}
		if _, ref := ReferenceParseFile("t.c", c.src); !reflect.DeepEqual(err, ref) {
			t.Errorf("ParseFile(%q) = %v, reference %v", c.src, err, ref)
		}
	}
}

func TestParseGlobals(t *testing.T) {
	src := `
static int debug_level = 2;
int counters[16];

int get(void)
{
	return debug_level;
}
`
	f, err := ParseFile("t.c", src)
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if len(f.Globals) != 2 {
		t.Fatalf("globals = %d, want 2", len(f.Globals))
	}
	if f.Globals[1].Type.ArrayLen != 16 {
		t.Errorf("counters type = %+v", f.Globals[1].Type)
	}
}

func TestParseNegativeReturnConstant(t *testing.T) {
	fn, err := parseFunc("t.c", "int f(void)\n{\n\treturn -ENOMEM;\n}\n")
	if err != nil {
		t.Fatalf("ParseFunc: %v", err)
	}
	ret := fn.Body.Stmts[0].(*ReturnStmt)
	u, ok := ret.X.(*UnaryExpr)
	if !ok || u.Op != Minus {
		t.Fatalf("return expr = %T", ret.X)
	}
	if id, ok := u.X.(*Ident); !ok || id.Name != "ENOMEM" {
		t.Fatalf("operand = %+v", u.X)
	}
}

func TestUnwrapCalls(t *testing.T) {
	e, err := parseExpr("unlikely(!pmx)")
	if err != nil {
		t.Fatalf("ParseExpr: %v", err)
	}
	u := UnwrapCalls(e, "unlikely", "likely")
	un, ok := u.(*UnaryExpr)
	if !ok || un.Op != Bang {
		t.Fatalf("unwrapped = %T %+v", u, u)
	}
	// Non-wrapper calls are not unwrapped.
	e2, _ := parseExpr("other(!pmx)")
	if _, ok := UnwrapCalls(e2, "unlikely").(*CallExpr); !ok {
		t.Error("other() should not be unwrapped")
	}
	// Nested wrappers unwrap fully.
	e3, _ := parseExpr("likely((unlikely(x)))")
	if id, ok := UnwrapCalls(e3, "unlikely", "likely").(*Ident); !ok || id.Name != "x" {
		t.Errorf("nested unwrap = %+v", UnwrapCalls(e3, "unlikely", "likely"))
	}
}

func TestParseCompoundAssignAndPostfix(t *testing.T) {
	fn, err := parseFunc("t.c", "void f(int n)\n{\n\tn += 4;\n\tn++;\n\t--n;\n}\n")
	if err != nil {
		t.Fatalf("ParseFunc: %v", err)
	}
	s0 := fn.Body.Stmts[0].(*ExprStmt).X.(*AssignExpr)
	if s0.Op != PlusEq {
		t.Errorf("op = %v", s0.Op)
	}
	if _, ok := fn.Body.Stmts[1].(*ExprStmt).X.(*PostfixExpr); !ok {
		t.Errorf("stmt 1 = %T", fn.Body.Stmts[1].(*ExprStmt).X)
	}
	if _, ok := fn.Body.Stmts[2].(*ExprStmt).X.(*UnaryExpr); !ok {
		t.Errorf("stmt 2 = %T", fn.Body.Stmts[2].(*ExprStmt).X)
	}
}
