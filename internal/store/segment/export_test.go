package segment

import "fmt"

// VerifyIntegrity cross-checks the maintained accounting against a full
// index walk: the byte total must equal the sum of live payload
// lengths, both indexes must agree on the live set, and no counter may
// be negative. The tests and the fuzz harness call it after every
// operation.
func (s *Store) VerifyIntegrity() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var bytes int64
	for id, r := range s.idx {
		bytes += int64(r.payLen)
		byFn := s.byFunc[r.funcTok]
		if byFn == nil || byFn[id] != r {
			return fmt.Errorf("segment: entry %q missing from func index %q", id, r.funcTok)
		}
	}
	indexed := 0
	for fn, byFn := range s.byFunc {
		for id, r := range byFn {
			if s.idx[id] != r {
				return fmt.Errorf("segment: func index %q holds stale entry %q", fn, id)
			}
		}
		indexed += len(byFn)
	}
	if indexed != len(s.idx) {
		return fmt.Errorf("segment: func index holds %d entries, id index %d", indexed, len(s.idx))
	}
	if bytes != s.liveBytes {
		return fmt.Errorf("segment: liveBytes %d != index walk %d", s.liveBytes, bytes)
	}
	if s.liveBytes < 0 {
		return fmt.Errorf("segment: negative liveBytes %d", s.liveBytes)
	}
	return nil
}

// liveIDs lists every live entry's id, in no particular order.
func (s *Store) liveIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.idx))
	for id := range s.idx {
		ids = append(ids, id)
	}
	return ids
}
