package sym

import "testing"

// FuzzFlatMatchesMap runs a sequence of forks against a Go map per
// version. Each op is three bytes: the version to fork (any earlier one,
// so siblings share a parent), the key and the value. Every version must
// keep answering as its map does, with its entries strictly ascending,
// after all later forks: with must never write into its receiver.
func FuzzFlatMatchesMap(f *testing.F) {
	f.Add([]byte{0, 3, 1, 1, 5, 2, 2, 3, 9, 3, 0, 4})    // inserts in and out of order, then the first key overwritten
	f.Add([]byte{0, 7, 1, 1, 7, 2, 1, 7, 3, 0, 7, 4})    // one key overwritten along a chain and by siblings
	f.Add([]byte{0, 40, 0, 1, 8, 0, 2, 20, 0, 1, 20, 1}) // siblings insert one key with different values
	f.Fuzz(func(t *testing.T, ops []byte) {
		tables := []flat[RegionID, Value]{nil}
		models := []map[RegionID]Value{{}}
		for ; len(ops) >= 3; ops = ops[3:] {
			p := int(ops[0]) % len(tables)
			k, v := RegionID(ops[1]%48)-16, MakeInt(int64(ops[2]))
			m := make(map[RegionID]Value, len(models[p])+1)
			for mk, mv := range models[p] {
				m[mk] = mv
			}
			m[k] = v
			tables, models = append(tables, tables[p].with(k, v)), append(models, m)
		}
		for i, tab := range tables {
			if len(tab) != len(models[i]) {
				t.Fatalf("version %d holds %d entries, its map %d", i, len(tab), len(models[i]))
			}
			for j := 1; j < len(tab); j++ {
				if tab[j-1].key >= tab[j].key {
					t.Fatalf("version %d is not strictly ascending at %d: %v", i, j, tab)
				}
			}
			for k := RegionID(-17); k <= 32; k++ {
				got, ok := tab.get(k)
				want, wantOK := models[i][k]
				if ok != wantOK || got != want {
					t.Fatalf("version %d: get(%d) = %v %v, its map has %v %v", i, k, got, ok, want, wantOK)
				}
			}
		}
	})
}

// TestStateForkAllocations pins a fork of the core state to two
// allocations, the State and its one copied table, whatever the table
// size and whether the key is new or overwritten.
func TestStateForkAllocations(t *testing.T) {
	for _, size := range []int{1, 8, 64} {
		s := NewState()
		for i := 1; i <= size; i++ {
			s = s.BindRegion(RegionID(2*i), MakeSym(SymbolID(i))).
				WithNullness(SymbolID(2*i), NotNull).
				WithRange(SymbolID(2*i), Range{Min: 0, Max: int64(i)})
		}
		for _, fork := range []struct {
			name string
			op   func(key int32)
		}{
			{"BindRegion", func(k int32) { s.BindRegion(RegionID(k), MakeInt(-1)) }},
			{"WithNullness", func(k int32) { s.WithNullness(SymbolID(k), IsNull) }},
			{"WithRange", func(k int32) { s.WithRange(SymbolID(k), Range{Min: -1, Max: -1}) }},
		} {
			for _, key := range []int32{3, 2} { // a new key, an overwritten one
				if n := testing.AllocsPerRun(100, func() { fork.op(key) }); n != 2 {
					t.Errorf("%s of key %d on %d entries: %v allocations, want 2", fork.name, key, size, n)
				}
			}
		}
	}
}
