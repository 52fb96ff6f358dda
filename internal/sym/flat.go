package sym

// flat is an immutable table of entries kept sorted by key: the storage
// behind a State's bindings, nullness and ranges. A lookup is a binary
// search, and with returns a copy of n or n+1 entries. Its keys and
// values hold no pointers, so a fork is one allocation the garbage
// collector never scans; at the few dozen entries a state holds, that
// copy is cheaper than cloning a map.
type flat[K ~int32, V comparable] []entry[K, V]

type entry[K ~int32, V comparable] struct {
	key K
	val V
}

// find returns the index of k, or where it would be inserted.
func (t flat[K, V]) find(k K) (int, bool) {
	lo, hi := 0, len(t)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t[m].key < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t) && t[lo].key == k
}

func (t flat[K, V]) get(k K) (V, bool) {
	if i, ok := t.find(k); ok {
		return t[i].val, true
	}
	var zero V
	return zero, false
}

// with returns a table where k maps to v. t itself is never modified:
// states that share it must not see the change.
func (t flat[K, V]) with(k K, v V) flat[K, V] {
	i, ok := t.find(k)
	if ok {
		out := make(flat[K, V], len(t))
		copy(out, t)
		out[i].val = v
		return out
	}
	out := make(flat[K, V], len(t)+1)
	copy(out, t[:i])
	out[i] = entry[K, V]{k, v}
	copy(out[i+1:], t[i:])
	return out
}
