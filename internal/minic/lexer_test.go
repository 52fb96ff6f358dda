package minic

import (
	"fmt"
	"strings"
	"testing"
)

func kinds(toks []Token) []Kind {
	ks := make([]Kind, len(toks))
	for i, t := range toks {
		ks[i] = t.Kind
	}
	return ks
}

func TestLexBasicTokens(t *testing.T) {
	toks, err := Lex("t.c", "int x = 42;")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	want := []Kind{KwInt, IDENT, Assign, INT, Semi, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexOperators(t *testing.T) {
	cases := map[string]Kind{
		"->": Arrow, "&&": AmpAmp, "||": PipePipe, "==": EqEq, "!=": NotEq,
		"<=": Le, ">=": Ge, "<<": Shl, ">>": Shr, "+=": PlusEq, "-=": MinusEq,
		"++": Inc, "--": Dec, "*": Star, "&": Amp, "!": Bang, "~": Tilde,
		"?": Question, ":": Colon, "%": Percent, "^": Caret,
	}
	for src, want := range cases {
		toks, err := Lex("t.c", src)
		if err != nil {
			t.Fatalf("Lex(%q): %v", src, err)
		}
		if toks[0].Kind != want {
			t.Errorf("Lex(%q) = %v, want %v", src, toks[0].Kind, want)
		}
	}
}

func TestLexKeywordsVsIdents(t *testing.T) {
	toks, err := Lex("t.c", "struct structx __free sizeof sizeofx")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	want := []Kind{KwStruct, IDENT, KwFree, KwSizeof, IDENT, EOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexComments(t *testing.T) {
	src := `int a; // line comment
/* block
   comment */ int b;
#include <linux/module.h>
int c;`
	toks, err := Lex("t.c", src)
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	var idents []string
	for _, tok := range toks {
		if tok.Kind == IDENT {
			idents = append(idents, tok.Val)
		}
	}
	if len(idents) != 3 || idents[0] != "a" || idents[1] != "b" || idents[2] != "c" {
		t.Errorf("idents = %v, want [a b c]", idents)
	}
}

func TestLexHexAndSuffixes(t *testing.T) {
	toks, err := Lex("t.c", "0x1F 42UL 7u")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	if toks[0].Val != "0x1F" || toks[1].Val != "42UL" || toks[2].Val != "7u" {
		t.Errorf("unexpected literal spellings: %v %v %v", toks[0].Val, toks[1].Val, toks[2].Val)
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := Lex("t.c", `"hello \"world\"\n"`)
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	if toks[0].Kind != STRING {
		t.Fatalf("got %v, want STRING", toks[0].Kind)
	}
	if toks[0].Val != `hello \"world\"\n` {
		t.Errorf("string value = %q", toks[0].Val)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("f.c", "int\nx;")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("int at %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 1 {
		t.Errorf("x at %v, want 2:1", toks[1].Pos)
	}
	if toks[1].Pos.File != "f.c" {
		t.Errorf("file = %q, want f.c", toks[1].Pos.File)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "/* unterminated", "`"} {
		if _, err := Lex("t.c", src); err == nil {
			t.Errorf("Lex(%q): expected error", src)
		}
	}
}

func TestLexCharLiteral(t *testing.T) {
	toks, err := Lex("t.c", `'a' '\0'`)
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	if toks[0].Kind != CHAR || toks[0].Val != "a" {
		t.Errorf("first = %v %q", toks[0].Kind, toks[0].Val)
	}
	if toks[1].Kind != CHAR || toks[1].Val != `\0` {
		t.Errorf("second = %v %q", toks[1].Kind, toks[1].Val)
	}
}

// Lex drives Lexer.Next over the whole input, returning the tokens
// (terminated by an EOF token) or the first lexical error: the stream
// the parser pulls one token at a time.
func Lex(file, src string) ([]Token, error) {
	lx := NewLexer(file, src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

// ReferenceLex is Lex driven by referenceNext, the lexer's map-based
// Next as it stood before punctuation moved to a byte table and string
// literals to substrings. FuzzLexMatchesReference holds the live lexer
// to its token streams and errors.
func ReferenceLex(file, src string) ([]Token, error) {
	lx := NewLexer(file, src)
	var toks []Token
	for {
		t, err := lx.referenceNext()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) referenceNext() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) && isIdentPart(lx.peek()) {
			lx.advance()
		}
		word := lx.src[start:lx.off]
		if k, ok := keywords[word]; ok {
			return Token{Kind: k, Val: word, Pos: pos}, nil
		}
		return Token{Kind: IDENT, Val: word, Pos: pos}, nil
	case isDigit(c):
		start := lx.off
		if c == '0' && (lx.peek2() == 'x' || lx.peek2() == 'X') {
			lx.advance()
			lx.advance()
			for lx.off < len(lx.src) && isHexDigit(lx.peek()) {
				lx.advance()
			}
		} else {
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		// Swallow integer suffixes (UL, ULL, u, l ...).
		for lx.off < len(lx.src) && strings.ContainsRune("uUlL", rune(lx.peek())) {
			lx.advance()
		}
		return Token{Kind: INT, Val: lx.src[start:lx.off], Pos: pos}, nil
	case c == '"':
		lx.advance()
		var sb strings.Builder
		for {
			if lx.off >= len(lx.src) {
				return Token{}, &LexError{Pos: pos, Msg: "unterminated string literal"}
			}
			ch := lx.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' && lx.off < len(lx.src) {
				sb.WriteByte(ch)
				sb.WriteByte(lx.advance())
				continue
			}
			if ch == '\n' {
				return Token{}, &LexError{Pos: pos, Msg: "newline in string literal"}
			}
			sb.WriteByte(ch)
		}
		return Token{Kind: STRING, Val: sb.String(), Pos: pos}, nil
	case c == '\'':
		lx.advance()
		var sb strings.Builder
		for {
			if lx.off >= len(lx.src) {
				return Token{}, &LexError{Pos: pos, Msg: "unterminated char literal"}
			}
			ch := lx.advance()
			if ch == '\'' {
				break
			}
			if ch == '\\' && lx.off < len(lx.src) {
				sb.WriteByte(ch)
				sb.WriteByte(lx.advance())
				continue
			}
			sb.WriteByte(ch)
		}
		return Token{Kind: CHAR, Val: sb.String(), Pos: pos}, nil
	}

	// Operators and punctuation. Longest match first.
	two := ""
	if lx.off+1 < len(lx.src) {
		two = lx.src[lx.off : lx.off+2]
	}
	twoKinds := map[string]Kind{
		"->": Arrow, "&&": AmpAmp, "||": PipePipe, "<=": Le, ">=": Ge,
		"==": EqEq, "!=": NotEq, "<<": Shl, ">>": Shr, "+=": PlusEq,
		"-=": MinusEq, "*=": StarEq, "/=": SlashEq, "|=": OrEq, "&=": AndEq,
		"++": Inc, "--": Dec,
	}
	if k, ok := twoKinds[two]; ok {
		lx.advance()
		lx.advance()
		return Token{Kind: k, Pos: pos}, nil
	}
	oneKinds := map[byte]Kind{
		'(': LParen, ')': RParen, '{': LBrace, '}': RBrace, '[': LBracket,
		']': RBracket, ';': Semi, ',': Comma, ':': Colon, '?': Question,
		'.': Dot, '&': Amp, '|': Pipe, '^': Caret, '~': Tilde, '!': Bang,
		'+': Plus, '-': Minus, '*': Star, '/': Slash, '%': Percent,
		'<': Lt, '>': Gt, '=': Assign,
	}
	if k, ok := oneKinds[c]; ok {
		lx.advance()
		return Token{Kind: k, Pos: pos}, nil
	}
	return Token{}, &LexError{Pos: pos, Msg: fmt.Sprintf("unexpected character %q", string(c))}
}
