package shard

import (
	"fmt"

	"knighter/internal/api"
	"knighter/internal/store"
)

// MergeScan reassembles per-shard sub-scan replies into the response a
// single-host scan of paths would have produced. parts is indexed by
// shard; parts[s] is shard s's reply over ring.Partition(paths)[s] and
// may be nil only when that partition is empty.
//
// The merge walks paths in the given (global) order, looks up each
// path's owner, and consumes that owner's next file cut — so reports
// come out in exactly the file order a single host would have emitted,
// regardless of which shard computed them. MaxReports truncation is
// applied during the walk, mid-file if necessary, which byte-matches
// the single-host merge loop (counters and runtime errors keep
// accumulating past the cap, exactly as there).
//
// A partial that does not carry one cut per partition file is
// malformed; the caller (the scatter layer) treats that like a shard
// failure and retries the partition locally.
func MergeScan(name string, paths []string, ring Ring, parts []*api.ScanResponse, maxReports int) (*api.ScanResponse, error) {
	type cursor struct{ file, rep, errs int }
	cur := make([]cursor, len(parts))
	// counts[s] is the size of shard s's partition of paths.
	counts := make([]int, max(ring.Count, 1))
	for _, path := range paths {
		counts[ring.Owner(path)]++
	}
	for s, p := range parts {
		if counts[s] == 0 {
			continue
		}
		if p == nil {
			return nil, fmt.Errorf("shard %d: no partial for a non-empty partition", s)
		}
		if len(p.FileCuts) != counts[s] {
			return nil, fmt.Errorf("shard %d: %d file cuts for %d files", s, len(p.FileCuts), counts[s])
		}
	}

	out := &api.ScanResponse{Checker: name, Reports: make([]api.Report, 0)}
	for _, path := range paths {
		s := ring.Owner(path)
		p := parts[s]
		c := &cur[s]
		cut := p.FileCuts[c.file]
		if c.rep+cut.Reports > len(p.Reports) || c.errs+cut.RuntimeErrs > len(p.RuntimeErrs) {
			return nil, fmt.Errorf("shard %d: file cuts overrun the partial's payload", s)
		}
		out.RuntimeErrs = append(out.RuntimeErrs, p.RuntimeErrs[c.errs:c.errs+cut.RuntimeErrs]...)
		for _, rep := range p.Reports[c.rep : c.rep+cut.Reports] {
			if maxReports > 0 && len(out.Reports) >= maxReports {
				out.Truncated = true
				break
			}
			out.Reports = append(out.Reports, rep)
		}
		c.file++
		c.rep += cut.Reports
		c.errs += cut.RuntimeErrs
	}

	var hits, misses int64
	for s, p := range parts {
		if p == nil || counts[s] == 0 {
			continue
		}
		out.FilesScanned += p.FilesScanned
		out.FuncsScanned += p.FuncsScanned
		out.Canceled = out.Canceled || p.Canceled
		out.Cache.Hits += p.Cache.Hits
		out.Cache.Misses += p.Cache.Misses
		if p.Generation > out.Generation {
			out.Generation = p.Generation
		}
	}
	hits, misses = int64(out.Cache.Hits), int64(out.Cache.Misses)
	out.Cache.HitRate = store.Stats{Hits: hits, Misses: misses}.HitRate()
	if len(out.RuntimeErrs) == 0 {
		out.RuntimeErrs = nil
	}
	return out, nil
}
