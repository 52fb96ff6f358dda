package sym

import (
	"strconv"

	"knighter/internal/minic"
)

// RegionKind discriminates memory regions.
type RegionKind uint8

// Region kinds.
const (
	VarRegion    RegionKind = iota // a named local variable or parameter
	FieldRegion                    // base.field / base->field
	ElemRegion                     // base[index]
	SymRegion                      // the pointee of a symbolic pointer
	GlobalRegion                   // a named global
)

// Region describes one memory region. Regions are interned in an Arena so
// identity comparisons are RegionID comparisons.
type Region struct {
	ID     RegionID
	Kind   RegionKind
	Name   string   // variable/field name (Var/Field/Global)
	Parent RegionID // base region for Field/Elem
	Index  int64    // constant index for Elem (or -1 for unknown)
	Sym    SymbolID // owning symbol for SymRegion
	// ConjuredBy is the callee name whose return value created the
	// region (SymRegion provenance, e.g. "devm_kzalloc").
	ConjuredBy string
	// ArrayLen is the declared element count for fixed arrays (Var/Field
	// regions of array type), 0 if not an array.
	ArrayLen int
	Pos      minic.Pos
}

// Arena interns symbols and regions for one function analysis. It is
// mutable and shared across all paths of a single symbolic execution; all
// path-specific data lives in State.
type Arena struct {
	regions   []*Region
	symbols   []*SymbolInfo
	varIdx    map[string]RegionID
	globalIdx map[string]RegionID
	fieldIdx  map[fieldKey]RegionID
	elemIdx   map[elemKey]RegionID
	symRegIdx map[SymbolID]RegionID
}

// SymbolInfo records provenance for a symbol.
type SymbolInfo struct {
	ID SymbolID
	// ConjuredBy is the callee name for call-return symbols, or
	// "param:<name>" for parameters, or "load" for unknown loads.
	ConjuredBy string
	Pos        minic.Pos
}

type fieldKey struct {
	parent RegionID
	name   string
}

type elemKey struct {
	parent RegionID
	index  int64
}

// NewArena returns an empty arena. RegionID 0 and SymbolID 0 are reserved
// as "none".
func NewArena() *Arena {
	return &Arena{
		regions:   []*Region{{}}, // slot 0 reserved
		symbols:   []*SymbolInfo{{}},
		varIdx:    map[string]RegionID{},
		globalIdx: map[string]RegionID{},
		fieldIdx:  map[fieldKey]RegionID{},
		elemIdx:   map[elemKey]RegionID{},
		symRegIdx: map[SymbolID]RegionID{},
	}
}

// Reset empties the arena for another analysis, keeping the capacity of
// its tables. Regions and symbols handed out before are dropped, never
// reused, so a pointer to one still reads what it read before.
func (a *Arena) Reset() {
	clear(a.regions[1:])
	a.regions = a.regions[:1]
	clear(a.symbols[1:])
	a.symbols = a.symbols[:1]
	clear(a.varIdx)
	clear(a.globalIdx)
	clear(a.fieldIdx)
	clear(a.elemIdx)
	clear(a.symRegIdx)
}

// Region returns the region with the given id, or nil for NoRegion.
func (a *Arena) Region(id RegionID) *Region {
	if id <= 0 || int(id) >= len(a.regions) {
		return nil
	}
	return a.regions[id]
}

// Symbol returns the info for a symbol id, or nil.
func (a *Arena) Symbol(id SymbolID) *SymbolInfo {
	if id <= 0 || int(id) >= len(a.symbols) {
		return nil
	}
	return a.symbols[id]
}

// Size returns the number of regions and symbols allocated so far; it
// only grows, so an unchanged Size means nothing was allocated.
func (a *Arena) Size() int { return len(a.regions) + len(a.symbols) }

func (a *Arena) addRegion(r *Region) RegionID {
	r.ID = RegionID(len(a.regions))
	a.regions = append(a.regions, r)
	return r.ID
}

// NewSymbol conjures a fresh symbol with provenance.
func (a *Arena) NewSymbol(conjuredBy string, pos minic.Pos) SymbolID {
	info := &SymbolInfo{ID: SymbolID(len(a.symbols)), ConjuredBy: conjuredBy, Pos: pos}
	a.symbols = append(a.symbols, info)
	return info.ID
}

// VarRegion interns the region for a named local/parameter.
func (a *Arena) VarRegion(name string, pos minic.Pos) RegionID {
	if id, ok := a.varIdx[name]; ok {
		return id
	}
	id := a.addRegion(&Region{Kind: VarRegion, Name: name, Index: -1, Pos: pos})
	a.varIdx[name] = id
	return id
}

// GlobalRegion interns the region for a named global.
func (a *Arena) GlobalRegion(name string, pos minic.Pos) RegionID {
	if id, ok := a.globalIdx[name]; ok {
		return id
	}
	id := a.addRegion(&Region{Kind: GlobalRegion, Name: name, Index: -1, Pos: pos})
	a.globalIdx[name] = id
	return id
}

// FieldRegion interns base.field.
func (a *Arena) FieldRegion(parent RegionID, name string, pos minic.Pos) RegionID {
	k := fieldKey{parent, name}
	if id, ok := a.fieldIdx[k]; ok {
		return id
	}
	id := a.addRegion(&Region{Kind: FieldRegion, Name: name, Parent: parent, Index: -1, Pos: pos})
	a.fieldIdx[k] = id
	return id
}

// ElemRegion interns base[index]; index -1 means "unknown index" and all
// unknown indexes of a base share one region (index-insensitive).
func (a *Arena) ElemRegion(parent RegionID, index int64, pos minic.Pos) RegionID {
	k := elemKey{parent, index}
	if id, ok := a.elemIdx[k]; ok {
		return id
	}
	id := a.addRegion(&Region{Kind: ElemRegion, Parent: parent, Index: index, Pos: pos})
	a.elemIdx[k] = id
	return id
}

// SymRegionFor interns the pointee region of a symbolic pointer.
// conjuredBy records which callee produced the pointer (provenance used
// by checkers, e.g. "devm_kzalloc").
func (a *Arena) SymRegionFor(s SymbolID, conjuredBy string, pos minic.Pos) RegionID {
	if id, ok := a.symRegIdx[s]; ok {
		return id
	}
	id := a.addRegion(&Region{Kind: SymRegion, Sym: s, ConjuredBy: conjuredBy, Index: -1, Pos: pos})
	a.symRegIdx[s] = id
	return id
}

// ExistingSymRegion returns the pointee region already interned for a
// symbol, without creating one.
func (a *Arena) ExistingSymRegion(s SymbolID) (RegionID, bool) {
	id, ok := a.symRegIdx[s]
	return id, ok
}

// SetArrayLen records the declared fixed-array length on a region.
func (a *Arena) SetArrayLen(id RegionID, n int) {
	if r := a.Region(id); r != nil {
		r.ArrayLen = n
	}
}

// Describe renders a human-readable path for the region ("spi_bus",
// "spi_bus->spi_int[2]", "<devm_kzalloc() result>").
func (a *Arena) Describe(id RegionID) string {
	r := a.Region(id)
	if r == nil {
		return "<no region>"
	}
	switch r.Kind {
	case VarRegion, GlobalRegion:
		return r.Name
	case FieldRegion:
		return a.Describe(r.Parent) + "->" + r.Name
	case ElemRegion:
		if r.Index >= 0 {
			return a.Describe(r.Parent) + "[" + strconv.FormatInt(r.Index, 10) + "]"
		}
		return a.Describe(r.Parent) + "[...]"
	case SymRegion:
		if r.ConjuredBy != "" {
			return "<" + r.ConjuredBy + "() result>"
		}
		return "<sym" + strconv.Itoa(int(r.Sym)) + " pointee>"
	}
	return "<r" + strconv.Itoa(int(id)) + ">"
}
