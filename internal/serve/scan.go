package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"knighter/internal/api"
	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/obs"
	"knighter/internal/scan"
	"knighter/internal/shard"
	"knighter/internal/store"
)

// attachTiming copies the request trace's id and span timeline into the
// response when the client asked for it.
func attachTiming(ctx context.Context, id *string, spans *[]obs.Span, want bool) {
	if !want {
		return
	}
	if tr := obs.TraceFrom(ctx); tr != nil {
		*id = tr.ID
		*spans = tr.Spans()
	}
}

// observeScan records one finished scheduler pass from its results: a
// scan's, or every entry of a batch. The pass's wall time is observed
// once, from the first (every entry carries it; observing each would
// count one pass once per checker), and each entry's quiet
// results are counted. The request's trace id rides along as the scan
// histogram's exemplar, so a bucket spike on the dashboard links
// straight to a retained trace.
func (s *Server) observeScan(ctx context.Context, results ...*scan.Result) {
	if len(results) == 0 {
		return
	}
	id := ""
	if tr := obs.TraceFrom(ctx); tr != nil {
		id = tr.ID
	}
	s.m.scanDur.ObserveExemplar(results[0].Elapsed.Seconds(), id)
	for _, res := range results {
		s.m.quietResults.Add(res.QuietResults)
	}
}

// localPass scans cks over files of snap (nil: every file) in one
// scheduler pass, observes it, and answers one entry per checker,
// capped at maxReports (0: uncapped) and, when cuts is set, carrying
// the per-file cut list: a shard-local reply needs it, since it is what
// lets a coordinator splice the partial back into global file order.
func (s *Server) localPass(ctx context.Context, snap *scan.Snapshot, cks []checker.Checker, files []int, maxReports int, trace, cuts bool) []*api.ScanResponse {
	results := s.inc.RunBatchAt(snap, cks, files, scan.Options{MaxReports: maxReports, Context: ctx})
	s.observeScan(ctx, results...)
	out := make([]*api.ScanResponse, len(results))
	for i, res := range results {
		out[i] = api.ScanResult(cks[i].Name(), res, trace, cuts)
	}
	return out
}

// awaitMinGeneration implements the serve-at-or-after contract: wait a
// bounded interval for the corpus to reach the requested generation,
// and answer 409 + the current generation + a retry hint if it does
// not arrive in time. A sharded replica that is behind tries the feed
// first: a sub-scan from a coordinator that just committed converges
// here instead of burning its bounded wait toward a 409. Returns false
// when the request has been answered.
func (s *Server) awaitMinGeneration(w http.ResponseWriter, r *http.Request, min int64) bool {
	if min <= 0 {
		return true
	}
	s.maybeConverge(r.Context(), min)
	cb := s.inc.Codebase()
	ctx, cancel := context.WithTimeout(r.Context(), minGenWait)
	ok := cb.WaitForGeneration(ctx, min)
	cancel()
	if ok {
		return true
	}
	s.m.scanErrors.Inc()
	s.writeError(w, http.StatusConflict, &api.Error{
		Code: api.ErrGenerationUnavailable,
		Message: fmt.Sprintf("corpus is at generation %d; min_generation %d not reached within %s",
			cb.Generation(), min, minGenWait),
		RetryAfterMS: minGenWait.Milliseconds(),
	})
	return false
}

// resolveFiles maps request paths to file indices (nil = all files).
// The indices stay valid across generations because the file set is
// fixed — only contents change.
func (s *Server) resolveFiles(paths []string) ([]int, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	files := make([]int, 0, len(paths))
	for _, path := range paths {
		i := s.inc.Codebase().FileIndex(path)
		if i < 0 {
			return nil, fmt.Errorf("unknown file: %s", path)
		}
		files = append(files, i)
	}
	return files, nil
}

// handleScan serves POST /scan as a /batch of one checker. What is left
// here is the /scan wire shape: a missing checker is a 400, one that
// does not compile a 422 (before any min_generation wait), and the reply
// is the one entry, stamped with that entry's generation.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	var req api.ScanRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if req.Checker == "" {
		s.reject(w, http.StatusBadRequest, api.ErrBadRequest, "missing 'checker' (DSL text)")
		return
	}
	ck, err := ckdsl.CompileSource(req.Checker)
	if err != nil {
		s.reject(w, http.StatusUnprocessableEntity, api.ErrUnprocessable, "checker does not compile: "+err.Error())
		return
	}
	entries, _, ok := s.read(w, r, &req.Query, []checker.Checker{ck}, []string{req.Checker})
	if !ok {
		return
	}
	resp := entries[0]
	attachTiming(r.Context(), &resp.TraceID, &resp.Timing, req.IncludeTiming)
	s.writeOK(w, resp.Generation, resp)
}

// handleBatch serves POST /batch: the checkers that compile run as one
// read, and one that does not keeps its request slot as a per-entry
// error instead of failing its siblings.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if len(req.Checkers) == 0 {
		s.reject(w, http.StatusBadRequest, api.ErrBadRequest, "missing 'checkers' (list of DSL texts)")
		return
	}
	resp := &api.BatchResponse{Results: make([]*api.ScanResponse, len(req.Checkers))}
	var cks []checker.Checker
	var srcs []string
	var live []int // request index of each compiled checker
	for i, src := range req.Checkers {
		ck, err := ckdsl.CompileSource(src)
		if err != nil {
			resp.Results[i] = &api.ScanResponse{Error: "checker does not compile: " + err.Error()}
			resp.CheckerErrors++
			s.m.scanErrors.Inc()
			continue
		}
		cks, srcs, live = append(cks, ck), append(srcs, src), append(live, i)
	}
	start := time.Now()
	entries, gen, ok := s.read(w, r, &req.Query, cks, srcs)
	if !ok {
		return
	}
	for bi, m := range entries {
		resp.Results[live[bi]] = m
		resp.Cache.Hits += m.Cache.Hits
		resp.Cache.Misses += m.Cache.Misses
	}
	resp.Cache.HitRate = store.Stats{Hits: int64(resp.Cache.Hits), Misses: int64(resp.Cache.Misses)}.HitRate()
	resp.CheckersRun = len(cks)
	resp.Generation = gen
	resp.ElapsedMS = elapsedMS(start)
	attachTiming(r.Context(), &resp.TraceID, &resp.Timing, req.IncludeTiming)
	s.m.batches.Inc()
	s.writeOK(w, resp.Generation, resp)
}

// handleSubBatch serves shard.SubBatchPath on a sharded replica: one
// coordinator's sub-batch, scanned on this replica's own pinned
// snapshot, never scattered again. Its files are a partition reference,
// resolved against this replica's table (409 when the coordinator's
// table differs), or a path list (nil: the whole corpus). The reply is
// one partial per checker, with the per-file cuts the coordinator's
// merge needs, in the sub-batch codec (shard.EncodeSubBatch). The
// coordinator sends only checkers that compiled, so one that does not
// fails the sub-batch. It counts in sub_scans_served, not in batches.
func (s *Server) handleSubBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if len(req.Checkers) == 0 {
		s.reject(w, http.StatusBadRequest, api.ErrBadRequest, "missing 'checkers' (list of DSL texts)")
		return
	}
	cks := make([]checker.Checker, len(req.Checkers))
	for i, src := range req.Checkers {
		ck, err := ckdsl.CompileSource(src)
		if err != nil {
			s.reject(w, http.StatusUnprocessableEntity, api.ErrUnprocessable, fmt.Sprintf("checker %d does not compile: %v", i, err))
			return
		}
		cks[i] = ck
	}
	var files []int
	var err error
	if req.Partition != nil {
		if files, err = s.shard.table.Resolve(*req.Partition); err != nil {
			s.reject(w, http.StatusConflict, api.ErrUnprocessable, err.Error())
			return
		}
	} else if files, err = s.resolveFiles(req.Files); err != nil {
		s.reject(w, http.StatusNotFound, api.ErrNotFound, err.Error())
		return
	}
	if !s.awaitMinGeneration(w, r, req.MinGeneration) {
		return
	}
	s.shard.subScans.Inc()
	pin := s.inc.Codebase().Pin()
	defer pin.Release()
	results := s.inc.RunBatchAt(pin.Snapshot, cks, files, scan.Options{Context: r.Context()})
	s.observeScan(r.Context(), results...)
	s.m.scans.Add(len(cks))
	for _, res := range results {
		s.m.reportsServed.Add(len(res.Reports))
		if res.Canceled {
			s.m.scansCanceled.Inc()
		}
	}
	w.Header().Set(api.GenerationHeader, strconv.FormatInt(pin.Snapshot.Generation(), 10))
	w.Header().Set("Content-Type", shard.SubBatchContentType)
	w.Write(shard.EncodeSubBatch(results, req.IncludeTrace))
}

// read is the one read core behind /scan and /batch. It waits for
// min_generation, resolves the file list, and runs the compiled
// checkers (srcs holds their DSL texts, index for index) as one pass:
// on this replica's own pinned snapshot, or, on a sharded replica,
// scattered across the fleet. It returns one entry
// per checker and the generation they scanned, and false when the
// request has been answered with an error.
func (s *Server) read(w http.ResponseWriter, r *http.Request, q *api.Query, cks []checker.Checker, srcs []string) ([]*api.ScanResponse, int64, bool) {
	if !s.awaitMinGeneration(w, r, q.MinGeneration) {
		return nil, 0, false
	}
	files, err := s.resolveFiles(q.Files)
	if err != nil {
		s.reject(w, http.StatusNotFound, api.ErrNotFound, err.Error())
		return nil, 0, false
	}
	var entries []*api.ScanResponse
	var gen int64
	if s.shard != nil && len(cks) > 0 {
		var ok bool
		if entries, gen, ok = s.scatter(w, r, q, cks, srcs); !ok {
			return nil, 0, false
		}
	} else {
		// No corpus lock: the pass reads ONE pinned snapshot for every
		// checker, so all entries scan the same generation even while
		// changesets commit concurrently. With nothing to run, no pass
		// runs, and the reply carries the live generation.
		gen = s.inc.Codebase().Generation()
		if len(cks) > 0 {
			// The pass runs under the request context: a client that
			// disconnects mid-scan stops paying for the rest of it (the
			// admitted slot frees up, and no partial results are cached).
			pin := s.inc.Codebase().Pin()
			defer pin.Release()
			gen = pin.Snapshot.Generation()
			entries = s.localPass(r.Context(), pin.Snapshot, cks, files, q.MaxReports, q.IncludeTrace, false)
		}
	}
	s.m.scans.Add(len(cks))
	for _, m := range entries {
		s.m.reportsServed.Add(len(m.Reports))
		if m.Canceled {
			s.m.scansCanceled.Inc()
		}
	}
	return entries, gen, true
}
