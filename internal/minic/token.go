// Package minic implements a lexer, parser, and AST for a small C subset
// ("mini-C") sufficient to express the Linux-kernel idioms analyzed by the
// KNighter reproduction: pointers, structs, fixed-size arrays, goto-based
// error paths, sizeof, cleanup attributes (__free), and the allocator /
// locking / copy_from_user call patterns the paper's ten bug categories
// are built from.
package minic

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Keywords get dedicated kinds so the parser can dispatch on
// them without string comparisons.
const (
	EOF Kind = iota
	IDENT
	INT    // integer literal (decimal or hex)
	STRING // "..." literal, value holds the unquoted text
	CHAR   // 'c' literal, value holds the unquoted text

	// Keywords.
	KwStruct
	KwIf
	KwElse
	KwWhile
	KwFor
	KwReturn
	KwGoto
	KwBreak
	KwContinue
	KwSizeof
	KwSwitch
	KwCase
	KwDefault
	KwStatic
	KwConst
	KwUnsigned
	KwVoid
	KwInt
	KwChar
	KwLong
	KwBool
	KwFree // __free cleanup attribute

	// Punctuation and operators.
	LParen   // (
	RParen   // )
	LBrace   // {
	RBrace   // }
	LBracket // [
	RBracket // ]
	Semi     // ;
	Comma    // ,
	Colon    // :
	Question // ?
	Arrow    // ->
	Dot      // .
	Amp      // &
	AmpAmp   // &&
	Pipe     // |
	PipePipe // ||
	Caret    // ^
	Tilde    // ~
	Bang     // !
	Plus     // +
	Minus    // -
	Star     // *
	Slash    // /
	Percent  // %
	Lt       // <
	Gt       // >
	Le       // <=
	Ge       // >=
	EqEq     // ==
	NotEq    // !=
	Shl      // <<
	Shr      // >>
	Assign   // =
	PlusEq   // +=
	MinusEq  // -=
	StarEq   // *=
	SlashEq  // /=
	OrEq     // |=
	AndEq    // &=
	Inc      // ++
	Dec      // --
)

var kindNames = map[Kind]string{
	EOF: "EOF", IDENT: "identifier", INT: "integer", STRING: "string", CHAR: "char",
	KwStruct: "struct", KwIf: "if", KwElse: "else", KwWhile: "while", KwFor: "for",
	KwReturn: "return", KwGoto: "goto", KwBreak: "break", KwContinue: "continue",
	KwSizeof: "sizeof", KwSwitch: "switch", KwCase: "case", KwDefault: "default",
	KwStatic: "static", KwConst: "const", KwUnsigned: "unsigned",
	KwVoid: "void", KwInt: "int", KwChar: "char", KwLong: "long", KwBool: "bool",
	KwFree: "__free",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}", LBracket: "[", RBracket: "]",
	Semi: ";", Comma: ",", Colon: ":", Question: "?", Arrow: "->", Dot: ".",
	Amp: "&", AmpAmp: "&&", Pipe: "|", PipePipe: "||", Caret: "^", Tilde: "~",
	Bang: "!", Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%",
	Lt: "<", Gt: ">", Le: "<=", Ge: ">=", EqEq: "==", NotEq: "!=",
	Shl: "<<", Shr: ">>", Assign: "=", PlusEq: "+=", MinusEq: "-=", StarEq: "*=",
	SlashEq: "/=", OrEq: "|=", AndEq: "&=", Inc: "++", Dec: "--",
}

// String returns a human-readable name for the kind, used in parse errors.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = map[string]Kind{
	"struct": KwStruct, "if": KwIf, "else": KwElse, "while": KwWhile, "for": KwFor,
	"return": KwReturn, "goto": KwGoto, "break": KwBreak, "continue": KwContinue,
	"sizeof": KwSizeof, "switch": KwSwitch, "case": KwCase, "default": KwDefault,
	"static": KwStatic, "const": KwConst, "unsigned": KwUnsigned,
	"void": KwVoid, "int": KwInt, "char": KwChar, "long": KwLong, "bool": KwBool,
	"__free": KwFree,
}

// typeWords are identifiers treated as primitive type names in addition to
// the keyword types. They cover the kernel typedefs the corpus uses.
var typeWords = map[string]bool{
	"size_t": true, "ssize_t": true, "u8": true, "u16": true, "u32": true,
	"u64": true, "s8": true, "s16": true, "s32": true, "s64": true,
	"gfp_t": true, "loff_t": true, "dma_addr_t": true, "irqreturn_t": true,
	"uintptr_t": true,
}

// IsTypeWord reports whether name is one of the recognized primitive
// typedef names (size_t, u32, ...).
func IsTypeWord(name string) bool { return typeWords[name] }

// Pos is a source position (1-based line and column) within a named file.
type Pos struct {
	File string
	Line int
	Col  int
}

// String renders the position in the conventional file:line:col form.
func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is a single lexical token with its source position.
type Token struct {
	Kind Kind
	Val  string // text for IDENT/INT/STRING/CHAR
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT:
		return t.Val
	case STRING:
		return fmt.Sprintf("%q", t.Val)
	case CHAR:
		return "'" + t.Val + "'"
	default:
		return t.Kind.String()
	}
}
