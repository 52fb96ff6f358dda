package minic

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError describes a syntax error at a source position.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parser is a recursive-descent parser for mini-C. It pulls tokens from
// its lexer as it goes: tok is the current token, and ahead[head:] holds
// the tokens peekKind lexed past it, so a parse keeps a handful of tokens
// alive, never a file's whole stream.
type Parser struct {
	lx    Lexer
	tok   Token
	ahead []Token
	head  int
	// lexErr is the lexer's first error. The parser sees EOF from there
	// on, and finish returns lexErr over whatever the parse made of it.
	lexErr error
}

// ParseFile lexes and parses a translation unit.
func ParseFile(name, src string) (*File, error) {
	p := newParser(name, src)
	f, err := p.parseFile(name)
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return f, nil
}

func newParser(name, src string) *Parser {
	p := &Parser{lx: *NewLexer(name, src)}
	p.advance()
	return p
}

// finish returns the error of a parse that ended with err: a lexical
// error anywhere in the input wins over a syntax error before it, as if
// the whole input had been lexed before parsing began.
func (p *Parser) finish(err error) error {
	if p.lexErr != nil {
		return p.lexErr
	}
	if err == nil {
		return nil
	}
	for {
		t, lerr := p.lx.Next()
		if lerr != nil {
			return lerr
		}
		if t.Kind == EOF {
			return err
		}
	}
}

// scan returns the lexer's next token, or EOF from its first error on.
func (p *Parser) scan() Token {
	if p.lexErr == nil {
		t, err := p.lx.Next()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return Token{Kind: EOF, Pos: p.lx.pos()}
}

// advance makes the next token current.
func (p *Parser) advance() {
	if p.head < len(p.ahead) {
		p.tok = p.ahead[p.head]
		if p.head++; p.head == len(p.ahead) {
			p.ahead, p.head = p.ahead[:0], 0
		}
		return
	}
	p.tok = p.scan()
}

func (p *Parser) cur() *Token { return &p.tok }
func (p *Parser) next() Token { t := p.tok; p.advance(); return t }

// peek returns the token ahead places past the current one. The pointer
// is good until the next advance or peek.
func (p *Parser) peek(ahead int) *Token {
	if ahead == 0 {
		return &p.tok
	}
	for len(p.ahead)-p.head < ahead {
		p.ahead = append(p.ahead, p.scan())
	}
	return &p.ahead[p.head+ahead-1]
}

func (p *Parser) peekKind(ahead int) Kind { return p.peek(ahead).Kind }

func (p *Parser) at(k Kind) bool { return p.tok.Kind == k }

func (p *Parser) accept(k Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return Token{}, p.errorf("expected %s, found %s", k, p.cur())
}

func (p *Parser) errorf(format string, args ...any) error {
	return &ParseError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// atTypeStart reports whether the current token can begin a type.
func (p *Parser) atTypeStart() bool {
	switch p.cur().Kind {
	case KwStruct, KwConst, KwUnsigned, KwVoid, KwInt, KwChar, KwLong, KwBool:
		return true
	case IDENT:
		return IsTypeWord(p.cur().Val)
	}
	return false
}

// parseType parses const/unsigned qualifiers, a base type, and trailing
// '*' pointer markers.
func (p *Parser) parseType() (Type, error) {
	var t Type
	for p.accept(KwConst) {
	}
	if p.accept(KwUnsigned) {
		t.Unsigned = true
		// "unsigned" alone means unsigned int.
		t.Base = "int"
	}
	switch p.cur().Kind {
	case KwStruct:
		p.next()
		id, err := p.expect(IDENT)
		if err != nil {
			return t, err
		}
		t.Base = "struct " + id.Val
	case KwVoid, KwInt, KwChar, KwBool:
		t.Base = p.next().Val
	case KwLong:
		p.next()
		t.Base = "long"
		// "long long" / "long int"
		if p.at(KwLong) {
			p.next()
			t.Base = "long long"
		}
		p.accept(KwInt)
	case IDENT:
		if IsTypeWord(p.cur().Val) {
			t.Base = p.next().Val
		} else if t.Base == "" {
			return t, p.errorf("expected type, found %s", p.cur())
		}
	default:
		if t.Base == "" {
			return t, p.errorf("expected type, found %s", p.cur())
		}
	}
	for p.accept(KwConst) {
	}
	for p.accept(Star) {
		t.Stars++
		for p.accept(KwConst) {
		}
	}
	return t, nil
}

func (p *Parser) parseFile(name string) (*File, error) {
	f := &File{Name: name}
	for !p.at(EOF) {
		isStatic := p.accept(KwStatic)
		if p.at(KwStruct) && p.peekKind(2) == LBrace {
			sd, err := p.parseStructDecl()
			if err != nil {
				return nil, err
			}
			f.Structs = append(f.Structs, sd)
			continue
		}
		item, err := p.parseTopLevel(isStatic)
		if err != nil {
			return nil, err
		}
		switch it := item.(type) {
		case *FuncDecl:
			f.Funcs = append(f.Funcs, it)
		case *DeclStmt:
			f.Globals = append(f.Globals, it)
		}
	}
	return f, nil
}

func (p *Parser) parseStructDecl() (*StructDecl, error) {
	pos := p.cur().Pos
	if _, err := p.expect(KwStruct); err != nil {
		return nil, err
	}
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	sd := &StructDecl{Name: id.Val, Pos: pos}
	for !p.at(RBrace) {
		ft, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fn, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if p.accept(LBracket) {
			n, err := p.expect(INT)
			if err != nil {
				return nil, err
			}
			v, _ := strconv.ParseInt(strings.TrimRight(n.Val, "uUlL"), 0, 64)
			ft.ArrayLen = int(v)
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		sd.Fields = append(sd.Fields, &Field{Type: ft, Name: fn.Val, Pos: fn.Pos})
	}
	p.next() // }
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return sd, nil
}

// parseTopLevel parses either a function definition or a global variable
// declaration (after any leading 'static' was consumed by the caller).
func (p *Parser) parseTopLevel(static bool) (Node, error) {
	pos := p.cur().Pos
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if p.at(LParen) {
		return p.parseFuncRest(static, t, id, pos)
	}
	// Global variable declaration.
	d := &DeclStmt{Type: t, Name: id.Val, Pos: pos}
	if p.accept(LBracket) {
		n, err := p.expect(INT)
		if err != nil {
			return nil, err
		}
		v, _ := strconv.ParseInt(strings.TrimRight(n.Val, "uUlL"), 0, 64)
		d.Type.ArrayLen = int(v)
		if _, err := p.expect(RBracket); err != nil {
			return nil, err
		}
	}
	if p.accept(Assign) {
		init, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseFuncRest(static bool, ret Type, id Token, pos Pos) (*FuncDecl, error) {
	fd := &FuncDecl{Static: static, Ret: ret, Name: id.Val, Pos: pos}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	if p.at(KwVoid) && p.peekKind(1) == RParen {
		p.next()
	}
	for !p.at(RParen) {
		pt, err := p.parseType()
		if err != nil {
			return nil, err
		}
		pn, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if p.accept(LBracket) {
			// Array parameter decays to pointer.
			if p.at(INT) {
				p.next()
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			pt.Stars++
		}
		fd.Params = append(fd.Params, &Param{Type: pt, Name: pn.Val, Pos: pn.Pos})
		if !p.accept(Comma) {
			break
		}
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	pos := p.cur().Pos
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	b := &Block{Pos: pos}
	for !p.at(RBrace) {
		if p.at(EOF) {
			return nil, p.errorf("unexpected EOF inside block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // }
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case LBrace:
		return p.parseBlock()
	case KwIf:
		return p.parseIf()
	case KwWhile:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Pos: pos}, nil
	case KwFor:
		return p.parseFor()
	case KwReturn:
		p.next()
		rs := &ReturnStmt{Pos: pos}
		if !p.at(Semi) {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.X = x
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return rs, nil
	case KwGoto:
		p.next()
		id, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &GotoStmt{Label: id.Val, Pos: pos}, nil
	case KwBreak:
		p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: pos}, nil
	case KwContinue:
		p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: pos}, nil
	case KwSwitch:
		return p.parseSwitch()
	case Semi:
		p.next()
		return &Block{Pos: pos}, nil
	case IDENT:
		if p.peekKind(1) == Colon {
			label := p.next().Val
			p.next() // :
			if p.at(RBrace) {
				return &LabeledStmt{Label: label, Pos: pos}, nil
			}
			inner, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return &LabeledStmt{Label: label, Stmt: inner, Pos: pos}, nil
		}
	}
	if p.atTypeStart() && !p.atCastOrSizeofContext() {
		return p.parseDecl()
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return &ExprStmt{X: x, Pos: pos}, nil
}

// atCastOrSizeofContext distinguishes a declaration "struct x *p;" from an
// expression statement beginning with a cast or sizeof (which cannot occur
// at statement start in practice). It exists to keep the decl/expr
// dispatch conservative.
func (p *Parser) atCastOrSizeofContext() bool { return false }

func (p *Parser) parseIf() (Stmt, error) {
	pos := p.cur().Pos
	p.next() // if
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	is := &IfStmt{Cond: cond, Then: then, Pos: pos}
	if p.accept(KwElse) {
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		is.Else = els
	}
	return is, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	pos := p.cur().Pos
	p.next() // for
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	fs := &ForStmt{Pos: pos}
	if !p.at(Semi) {
		if p.atTypeStart() {
			d, err := p.parseDecl()
			if err != nil {
				return nil, err
			}
			fs.Init = d
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fs.Init = &ExprStmt{X: x, Pos: x.NodePos()}
			if _, err := p.expect(Semi); err != nil {
				return nil, err
			}
		}
	} else {
		p.next()
	}
	if !p.at(Semi) {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Cond = cond
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	if !p.at(RParen) {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Post = post
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	fs.Body = body
	return fs, nil
}

// parseSwitch parses a switch statement and desugars it into an
// if/else-if chain on equality comparisons. Each case body must end in
// break or return (C fallthrough is not supported — the desugaring would
// silently change semantics, so the parser rejects it). The scrutinee is
// bound once via a synthetic comparison against each case label.
func (p *Parser) parseSwitch() (Stmt, error) {
	pos := p.cur().Pos
	p.next() // switch
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	scrutinee, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	type arm struct {
		labels    []Expr // case labels sharing this body; empty for default
		isDefault bool
		body      []Stmt
		pos       Pos
	}
	// endsControl reports whether a non-empty body transfers control
	// (break out of the switch, return, or goto) — the condition under
	// which a following case is not a fallthrough.
	endsControl := func(body []Stmt) bool {
		if len(body) == 0 {
			return false
		}
		switch body[len(body)-1].(type) {
		case *BreakStmt, *ReturnStmt, *GotoStmt:
			return true
		}
		return false
	}
	var arms []*arm
	var cur *arm
	newLabel := func(labelPos Pos) error {
		if cur != nil && len(cur.body) > 0 && !endsControl(cur.body) {
			return &ParseError{Pos: labelPos, Msg: "switch fallthrough is not supported; end the previous case with break or return"}
		}
		return nil
	}
	for !p.at(RBrace) {
		switch p.cur().Kind {
		case KwCase:
			casePos := p.next().Pos
			label, err := p.parseCondExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(Colon); err != nil {
				return nil, err
			}
			if err := newLabel(casePos); err != nil {
				return nil, err
			}
			if cur != nil && cur.isDefault {
				return nil, &ParseError{Pos: casePos, Msg: "case after default"}
			}
			if cur != nil && len(cur.body) == 0 && !cur.isDefault {
				// "case A: case B: body" — labels group onto one arm.
				cur.labels = append(cur.labels, label)
				continue
			}
			cur = &arm{labels: []Expr{label}, pos: casePos}
			arms = append(arms, cur)
		case KwDefault:
			defPos := p.next().Pos
			if _, err := p.expect(Colon); err != nil {
				return nil, err
			}
			if err := newLabel(defPos); err != nil {
				return nil, err
			}
			cur = &arm{isDefault: true, pos: defPos}
			arms = append(arms, cur)
		case EOF:
			return nil, p.errorf("unexpected EOF inside switch")
		default:
			if cur == nil {
				return nil, p.errorf("statement before first case label")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			cur.body = append(cur.body, s)
		}
	}
	p.next() // }

	// Desugar: drop trailing breaks (the if/else chain has no
	// fallthrough) and fold into a right-nested conditional.
	strip := func(body []Stmt) []Stmt {
		if n := len(body); n > 0 {
			if _, ok := body[n-1].(*BreakStmt); ok {
				return body[:n-1]
			}
		}
		return body
	}
	var out Stmt
	for i := len(arms) - 1; i >= 0; i-- {
		a := arms[i]
		blk := &Block{Stmts: strip(a.body), Pos: a.pos}
		if a.isDefault {
			out = blk
			continue
		}
		var cond Expr
		for _, l := range a.labels {
			eq := &BinaryExpr{Op: EqEq, X: scrutinee, Y: l, Pos: a.pos}
			if cond == nil {
				cond = eq
			} else {
				cond = &BinaryExpr{Op: PipePipe, X: cond, Y: eq, Pos: a.pos}
			}
		}
		out = &IfStmt{Cond: cond, Then: blk, Else: out, Pos: a.pos}
	}
	if out == nil {
		out = &Block{Pos: pos}
	}
	return out, nil
}

// parseDecl parses a local declaration statement (consuming the ';').
func (p *Parser) parseDecl() (Stmt, error) {
	pos := p.cur().Pos
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{Type: t, Name: id.Val, Pos: pos}
	if p.accept(LBracket) {
		n, err := p.expect(INT)
		if err != nil {
			return nil, err
		}
		v, perr := strconv.ParseInt(strings.TrimRight(n.Val, "uUlL"), 0, 64)
		if perr != nil {
			return nil, p.errorf("bad array length %q", n.Val)
		}
		d.Type.ArrayLen = int(v)
		if _, err := p.expect(RBracket); err != nil {
			return nil, err
		}
	}
	if p.accept(KwFree) {
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		fn, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		d.Cleanup = fn.Val
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
	}
	if p.accept(Assign) {
		init, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return d, nil
}

// --- Expressions ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseAssignExpr() }

var assignOps = map[Kind]bool{
	Assign: true, PlusEq: true, MinusEq: true, StarEq: true,
	SlashEq: true, OrEq: true, AndEq: true,
}

func (p *Parser) parseAssignExpr() (Expr, error) {
	lhs, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	if assignOps[p.cur().Kind] {
		op := p.next()
		rhs, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		return &AssignExpr{Op: op.Kind, LHS: lhs, RHS: rhs, Pos: lhs.NodePos()}, nil
	}
	return lhs, nil
}

func (p *Parser) parseCondExpr() (Expr, error) {
	cond, err := p.parseBinaryExpr(1)
	if err != nil {
		return nil, err
	}
	if p.accept(Question) {
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Colon); err != nil {
			return nil, err
		}
		els, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		return &CondExpr{Cond: cond, Then: then, Else: els, Pos: cond.NodePos()}, nil
	}
	return cond, nil
}

// binary operator precedence; higher binds tighter.
func precOf(k Kind) int {
	switch k {
	case PipePipe:
		return 1
	case AmpAmp:
		return 2
	case Pipe:
		return 3
	case Caret:
		return 4
	case Amp:
		return 5
	case EqEq, NotEq:
		return 6
	case Lt, Gt, Le, Ge:
		return 7
	case Shl, Shr:
		return 8
	case Plus, Minus:
		return 9
	case Star, Slash, Percent:
		return 10
	}
	return 0
}

func (p *Parser) parseBinaryExpr(minPrec int) (Expr, error) {
	lhs, err := p.parseUnaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		prec := precOf(p.cur().Kind)
		if prec < minPrec || prec == 0 {
			return lhs, nil
		}
		op := p.next()
		rhs, err := p.parseBinaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{Op: op.Kind, X: lhs, Y: rhs, Pos: lhs.NodePos()}
	}
}

func (p *Parser) parseUnaryExpr() (Expr, error) {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case Bang, Tilde, Minus, Plus, Star, Amp:
		op := p.next().Kind
		if op == Plus { // unary plus is a no-op
			return p.parseUnaryExpr()
		}
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: op, X: x, Pos: pos}, nil
	case Inc, Dec:
		op := p.next().Kind
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: op, X: x, Pos: pos}, nil
	case KwSizeof:
		p.next()
		if p.at(LParen) && p.typeFollowsParen() {
			p.next() // (
			t, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			return &SizeofExpr{Type: &t, Pos: pos}, nil
		}
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		// Canonicalize sizeof(expr): the parentheses belong to the sizeof
		// form, not to the operand, so strip any ParenExpr wrapper.
		return &SizeofExpr{X: Unparen(x), Pos: pos}, nil
	case LParen:
		if p.typeFollowsParen() {
			p.next() // (
			t, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			x, err := p.parseUnaryExpr()
			if err != nil {
				return nil, err
			}
			return &CastExpr{Type: t, X: x, Pos: pos}, nil
		}
	}
	return p.parsePostfixExpr()
}

// typeFollowsParen reports whether the token after the current '(' begins
// a type (cast or sizeof(type) form).
func (p *Parser) typeFollowsParen() bool {
	if !p.at(LParen) {
		return false
	}
	switch p.peekKind(1) {
	case KwStruct, KwConst, KwUnsigned, KwVoid, KwInt, KwChar, KwLong, KwBool:
		return true
	case IDENT:
		if !IsTypeWord(p.peek(1).Val) {
			return false
		}
		// A typedef name is also a usable identifier: "(u8 *)p" is a
		// cast, but "(u8 % 2)" — which the printer emits for "u8 % 2"
		// under a lower-precedence operator — is an expression. It names
		// a type only when the parenthesis closes after its qualifiers
		// and pointer stars.
		n := 2
		for k := p.peekKind(n); k == KwConst || k == Star; k = p.peekKind(n) {
			n++
		}
		return p.peekKind(n) == RParen
	}
	return false
}

func (p *Parser) parsePostfixExpr() (Expr, error) {
	x, err := p.parsePrimaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		pos := p.cur().Pos
		switch p.cur().Kind {
		case LBracket:
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			x = &IndexExpr{X: x, Idx: idx, Pos: pos}
		case Dot:
			p.next()
			id, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			x = &MemberExpr{X: x, Name: id.Val, Pos: pos}
		case Arrow:
			p.next()
			id, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			x = &MemberExpr{X: x, Name: id.Val, Arrow: true, Pos: pos}
		case Inc, Dec:
			op := p.next().Kind
			x = &PostfixExpr{Op: op, X: x, Pos: pos}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimaryExpr() (Expr, error) {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case IDENT:
		id := p.next()
		if p.at(LParen) {
			p.next()
			call := &CallExpr{Fun: id.Val, Pos: pos}
			for !p.at(RParen) {
				arg, err := p.parseAssignExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if !p.accept(Comma) {
					break
				}
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &Ident{Name: id.Val, Pos: pos}, nil
	case INT:
		t := p.next()
		v, err := strconv.ParseInt(strings.TrimRight(t.Val, "uUlL"), 0, 64)
		if err != nil {
			return nil, &ParseError{Pos: pos, Msg: fmt.Sprintf("bad integer literal %q", t.Val)}
		}
		return &IntLit{Val: v, Text: t.Val, Pos: pos}, nil
	case STRING:
		t := p.next()
		return &StrLit{Val: t.Val, Pos: pos}, nil
	case CHAR:
		t := p.next()
		return &CharLit{Val: t.Val, Pos: pos}, nil
	case LParen:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return &ParenExpr{X: x, Pos: pos}, nil
	}
	return nil, p.errorf("unexpected %s in expression", p.cur())
}
