package segment

import (
	"context"
	"os"
	"sort"
	"time"
)

// CompactResult reports what one compaction pass actually did. The
// Expired/Evicted numbers are the entries the pass dropped from the
// index — the books are computed from the drop itself, so they cannot
// drift from the live set the way delta-maintained counters can.
type CompactResult struct {
	Expired   int
	Evicted   int
	Rewritten int // live records copied out of victim segments
	Removed   int // segment files deleted
}

// Total is the number of entries the pass removed from the live set.
func (r CompactResult) Total() int { return r.Expired + r.Evicted }

// Compact runs one pass of the engine's unified garbage collection:
//
//  1. TTL: drop live entries older than ttl (ttl <= 0 skips this phase).
//  2. Byte budget: if Options.MaxBytes is set and the live set exceeds
//     it, drop oldest entries first until it fits.
//  3. Rewrite: any sealed segment whose dead-byte fraction is at or
//     above Options.CompactDeadFraction has its live records copied to
//     the active segment and is then deleted — dead and invalidated
//     records simply don't survive the copy.
//
// The whole pass holds the write lock; it is O(live entries) plus the
// I/O of the records it copies.
func (s *Store) Compact(ttl time.Duration) CompactResult {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var res CompactResult
	if s.closed {
		return res
	}

	// Phase 1: TTL.
	if ttl > 0 {
		cutoff := now.Add(-ttl).UnixNano()
		for id, r := range s.idx {
			if r.unixNano < cutoff {
				s.dropLocked(id, r)
				res.Expired++
			}
		}
	}

	// Phase 2: byte budget, oldest first.
	if s.opts.MaxBytes > 0 && s.liveBytes > s.opts.MaxBytes {
		type victim struct {
			id string
			r  *ref
		}
		all := make([]victim, 0, len(s.idx))
		for id, r := range s.idx {
			all = append(all, victim{id, r})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].r.unixNano < all[j].r.unixNano })
		for _, v := range all {
			if s.liveBytes <= s.opts.MaxBytes {
				break
			}
			s.dropLocked(v.id, v.r)
			res.Evicted++
		}
	}

	// Phase 3: rewrite dead segments. Group live refs by segment so the
	// dead fraction and the copy set come from the index, not a file scan.
	liveBySeg := map[uint32][]*ref{}
	liveRecBytes := map[uint32]int64{}
	idBySegRef := map[*ref]string{}
	for id, r := range s.idx {
		liveBySeg[r.seg] = append(liveBySeg[r.seg], r)
		liveRecBytes[r.seg] += int64(r.recLen)
		idBySegRef[r] = id
	}

	var victims []*segFile
	for segID, sf := range s.segs {
		if s.active != nil && segID == s.active.id {
			continue
		}
		if sf.size == 0 {
			victims = append(victims, sf)
			continue
		}
		dead := sf.size - liveRecBytes[segID]
		if float64(dead)/float64(sf.size) >= s.opts.CompactDeadFraction {
			victims = append(victims, sf)
		}
	}
	if len(victims) == 0 {
		s.compactions.Add(1)
		s.expired.Add(int64(res.Expired))
		s.evicted.Add(int64(res.Evicted))
		return res
	}
	// Process victims in id order so records keep their replay order when
	// copied to the active segment.
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	removing := map[uint32]bool{}
	for _, sf := range victims {
		removing[sf.id] = true
	}
	// oldestSurvivor is the smallest surviving segment id; a tombstone in
	// a victim only needs forwarding if an older segment survives it (its
	// replay could otherwise resurrect dead records of that func).
	oldestSurvivor := uint32(0)
	haveSurvivorBelow := func(victimID uint32) bool {
		return oldestSurvivor != 0 && oldestSurvivor < victimID
	}
	for id := range s.segs {
		if removing[id] {
			continue
		}
		if oldestSurvivor == 0 || id < oldestSurvivor {
			oldestSurvivor = id
		}
	}

	for _, sf := range victims {
		// Copy the victim's live records to the active segment, in offset
		// order (preserves intra-segment replay order).
		live := liveBySeg[sf.id]
		sort.Slice(live, func(i, j int) bool { return live[i].recOff < live[j].recOff })
		ok := true
		for _, r := range live {
			if r.seg != sf.id {
				// Tombstone forwarding for an earlier victim of this pass
				// already relocated this entry to the active segment; its
				// ref no longer points into this file. Copying at the new
				// offset would read garbage from the victim.
				continue
			}
			rec, err := sf.readRecord(r.recOff, r.recLen)
			if err != nil {
				ok = false
				break
			}
			dst, off, err := s.appendLocked(rec)
			if err != nil {
				ok = false
				break
			}
			payDelta := r.payOff - r.recOff
			r.seg = dst.id
			r.recOff = off
			r.payOff = off + payDelta
			res.Rewritten++
		}
		if !ok {
			// Copy failed mid-segment: keep the victim (its remaining refs
			// still point into it) and let a later pass retry. Refs already
			// copied point at the active segment, which is fine. The kept
			// file is now a survivor — later victims' tombstones must be
			// forwarded past it, or its replay could resurrect their dead
			// records after a restart.
			delete(removing, sf.id)
			if oldestSurvivor == 0 || sf.id < oldestSurvivor {
				oldestSurvivor = sf.id
			}
			continue
		}
		// Forward the victim's tombstones whose deletions could still be
		// undone by replaying an older surviving segment. Appended last,
		// a forwarded tombstone would also kill any live entries of its
		// func at replay — so those are re-appended after it, restoring
		// replay order.
		for _, fn := range sf.tombs {
			if !haveSurvivorBelow(sf.id) {
				continue
			}
			if _, _, err := s.appendLocked(encodeTombstone(fn, now.UnixNano())); err != nil {
				continue
			}
			s.active.tombs = append(s.active.tombs, fn)
			for rid, r := range s.byFunc[fn] {
				src := s.segs[r.seg]
				if src == nil {
					continue
				}
				rec, err := src.readRecord(r.recOff, r.recLen)
				if err != nil {
					s.dropLocked(rid, r)
					continue
				}
				dst, off, err := s.appendLocked(rec)
				if err != nil {
					s.dropLocked(rid, r)
					continue
				}
				payDelta := r.payOff - r.recOff
				r.seg = dst.id
				r.recOff = off
				r.payOff = off + payDelta
				res.Rewritten++
			}
		}
		// Sync the copies before unlinking their source: a crash between
		// the two must cost at most the flush window, never the copied
		// entries.
		if s.active != nil {
			s.active.f.Sync()
		}
		delete(s.segs, sf.id)
		sf.f.Close()
		os.Remove(s.segPath(sf.id))
		res.Removed++
		if oldestSurvivor == sf.id {
			oldestSurvivor = 0
			for id := range s.segs {
				if oldestSurvivor == 0 || id < oldestSurvivor {
					oldestSurvivor = id
				}
			}
		}
	}
	// A failed victim skips its per-victim sync, so sync once more before
	// clearing the dirty flag — otherwise its partial copies and forwarded
	// tombstones would sit unsynced until the next Put re-dirties the
	// segment, widening the crash-loss window past the flush interval.
	if s.active != nil && s.active.f.Sync() == nil {
		s.dirty.Store(false)
	}
	s.compactions.Add(1)
	s.expired.Add(int64(res.Expired))
	s.evicted.Add(int64(res.Evicted))
	return res
}

// CompactInterval picks a sweep cadence for a TTL: a quarter of the
// TTL, clamped to [1m, 15m]; 1m when no TTL is set (byte-budget-only
// configurations still need the loop).
func CompactInterval(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		return time.Minute
	}
	every := ttl / 4
	if every < time.Minute {
		every = time.Minute
	}
	if every > 15*time.Minute {
		every = 15 * time.Minute
	}
	return every
}

// StartCompactLoop runs Compact on a ticker until ctx is done, so a
// daemon's graceful drain never races a sweep. onSweep (optional) is
// called after each pass with its duration and result.
func (s *Store) StartCompactLoop(ctx context.Context, ttl, every time.Duration, onSweep func(time.Duration, CompactResult)) {
	if every <= 0 {
		every = CompactInterval(ttl)
	}
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				start := time.Now()
				res := s.Compact(ttl)
				if onSweep != nil {
					onSweep(time.Since(start), res)
				}
			}
		}
	}()
}
