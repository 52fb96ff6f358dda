package api

import (
	"knighter/internal/scan"
	"knighter/internal/store"
)

// CacheOf maps a scan result's cache counters onto the wire shape.
func CacheOf(res *scan.Result) CacheStats {
	return CacheStats{
		Hits:    res.CacheHits,
		Misses:  res.CacheMisses,
		HitRate: store.Stats{Hits: int64(res.CacheHits), Misses: int64(res.CacheMisses)}.HitRate(),
	}
}

// ScanResult maps a scan result onto the wire response. Both kserve's
// handlers and the shard fan-out's local-fallback path produce their
// ScanResponse through this one function, so a sub-scan served remotely
// and one recomputed locally are byte-identical for the same snapshot.
//
// includeCuts additionally attaches the per-file merge cursor
// (FileCuts) — set on shard-local sub-scan replies and fallback
// partials, never on client-facing merged responses.
func ScanResult(name string, res *scan.Result, includeTrace, includeCuts bool) *ScanResponse {
	resp := &ScanResponse{
		Checker:      name,
		Reports:      make([]Report, 0, len(res.Reports)),
		FilesScanned: res.FilesScanned,
		FuncsScanned: res.FuncsScanned,
		Truncated:    res.Truncated,
		Canceled:     res.Canceled,
		Cache:        CacheOf(res),
		Generation:   res.Generation,
		// The pass's wall time: one scheduler pass serves every checker
		// of a batch, so each entry carries the whole pass's.
		ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000,
	}
	for _, rep := range res.Reports {
		rj := Report{
			Checker: rep.Checker, BugType: rep.BugType, Message: rep.Message,
			File: rep.File, Func: rep.Func, Line: rep.Pos.Line, Col: rep.Pos.Col,
			Region: rep.RegionAt,
		}
		if includeTrace {
			for _, t := range rep.Trace {
				rj.Trace = append(rj.Trace, TraceStep{Line: t.Pos.Line, Col: t.Pos.Col, Note: t.Note})
			}
		}
		resp.Reports = append(resp.Reports, rj)
	}
	for _, re := range res.RuntimeErrs {
		resp.RuntimeErrs = append(resp.RuntimeErrs, re.Error())
	}
	if includeCuts {
		resp.FileCuts = make([]FileCut, len(res.FileCuts))
		for i, c := range res.FileCuts {
			resp.FileCuts[i] = FileCut{Reports: c.Reports, RuntimeErrs: c.RuntimeErrs}
		}
	}
	return resp
}
