// Package sym provides the symbolic-value layer of the analyzer: symbols,
// memory regions, integer ranges, and the immutable ProgramState that
// path-sensitive execution threads through the exploded graph.
//
// It is the reproduction's analog of the Clang Static Analyzer's SVal /
// MemRegion / ProgramState machinery (paper §2.1).
package sym

import "fmt"

// SymbolID identifies a symbolic value conjured during analysis (a
// function parameter, an unknown load, or a call's return value).
type SymbolID int32

// NoSymbol is the zero SymbolID, used when a Value carries no symbol.
const NoSymbol SymbolID = 0

// RegionID identifies a memory region in the Arena.
type RegionID int32

// NoRegion is the zero RegionID, used when a Value carries no region.
const NoRegion RegionID = 0

// ValueKind discriminates Value.
type ValueKind uint8

// Value kinds.
const (
	KindUnknown ValueKind = iota // nothing is known
	KindInt                      // concrete integer
	KindSymbol                   // opaque symbolic value
	KindLoc                      // address of a region (a non-null pointer)
)

// Value is an abstract value: a concrete integer, a symbol, the address
// of a region, or unknown. The zero Value is Unknown.
type Value struct {
	Kind ValueKind
	Int  int64
	Sym  SymbolID
	Reg  RegionID
}

// Unknown is the unknown value.
var Unknown = Value{Kind: KindUnknown}

// MakeInt returns a concrete integer value.
func MakeInt(v int64) Value { return Value{Kind: KindInt, Int: v} }

// MakeSym returns a symbolic value.
func MakeSym(s SymbolID) Value { return Value{Kind: KindSymbol, Sym: s} }

// MakeLoc returns the address of region r (a definitely-non-null pointer).
func MakeLoc(r RegionID) Value { return Value{Kind: KindLoc, Reg: r} }

// IsUnknown reports whether v carries no information.
func (v Value) IsUnknown() bool { return v.Kind == KindUnknown }

// IsConcreteInt reports whether v is a concrete integer.
func (v Value) IsConcreteInt() bool { return v.Kind == KindInt }

// IsNullConst reports whether v is the concrete integer 0 (the NULL
// pointer constant in C).
func (v Value) IsNullConst() bool { return v.Kind == KindInt && v.Int == 0 }

// IsSymbol reports whether v is a pure symbol.
func (v Value) IsSymbol() bool { return v.Kind == KindSymbol }

// IsLoc reports whether v is the address of a region.
func (v Value) IsLoc() bool { return v.Kind == KindLoc }

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("%d", v.Int)
	case KindSymbol:
		return fmt.Sprintf("sym%d", v.Sym)
	case KindLoc:
		return fmt.Sprintf("&r%d", v.Reg)
	default:
		return "unknown"
	}
}

// Nullness is the tri-state null constraint on a pointer-valued symbol.
type Nullness uint8

// Nullness states.
const (
	MaybeNull Nullness = iota // unconstrained
	NotNull                   // proven non-null on this path
	IsNull                    // proven null on this path
)

func (n Nullness) String() string {
	switch n {
	case NotNull:
		return "non-null"
	case IsNull:
		return "null"
	default:
		return "maybe-null"
	}
}
