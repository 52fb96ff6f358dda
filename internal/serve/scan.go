package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"knighter/internal/api"
	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/obs"
	"knighter/internal/scan"
	"knighter/internal/store"
)

// requestCost is the admission cost weight of a scan-shaped request:
// checkers x files, with an empty file list meaning the whole corpus.
// It is what the request will actually make the analyzer walk, so one
// 50-checker full-corpus /batch weighs 50 corpus scans — not the one
// token a single-file /scan also costs.
func (s *Server) requestCost(checkers int, files []string) int64 {
	n := len(files)
	if n == 0 {
		n = len(s.inc.Codebase().Files())
	}
	if checkers < 1 {
		checkers = 1
	}
	return int64(checkers) * int64(n)
}

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
// count one exploration once per checker), and each entry's quiet
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
		s.m.quietResults.Add(float64(res.QuietResults))
	}
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

func scanOptions(ctx context.Context, maxReports, workers, funcTimeoutMS int) scan.Options {
	return scan.Options{
		Workers:     workers,
		MaxReports:  maxReports,
		FuncTimeout: time.Duration(funcTimeoutMS) * time.Millisecond,
		// The request context: a client that disconnects mid-scan stops
		// paying for the rest of it (the admitted slot frees up, and no
		// partial results are cached).
		Context: ctx,
	}
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	var req api.ScanRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if req.Checker == "" {
		s.reject(w, http.StatusBadRequest, api.ErrBadRequest, "missing 'checker' (DSL text)")
		return
	}
	// Cost-weighted admission: the gate's token only counted requests;
	// the cost charge weighs what is inside one (checkers x files), so
	// one enormous request cannot hide behind the same token a tiny one
	// costs.
	release, ok := s.adm.admitCost(w, s.requestCost(1, req.Files))
	if !ok {
		return
	}
	defer release()
	ck, err := ckdsl.CompileSource(req.Checker)
	if err != nil {
		s.reject(w, http.StatusUnprocessableEntity, api.ErrUnprocessable, "checker does not compile: "+err.Error())
		return
	}
	if !s.awaitMinGeneration(w, r, req.MinGeneration) {
		return
	}
	files, err := s.resolveFiles(req.Files)
	if err != nil {
		s.reject(w, http.StatusNotFound, api.ErrNotFound, err.Error())
		return
	}
	if s.shard != nil && !req.ShardLocal {
		s.scatterScan(w, r, &req, ck)
		return
	}

	// No corpus lock: the scan pins the live snapshot itself.
	cks := []checker.Checker{ck}
	opts := scanOptions(r.Context(), req.MaxReports, req.Workers, req.FuncTimeoutMS)
	var res *scan.Result
	if files == nil {
		res = s.inc.Run(cks, opts)
	} else {
		res = s.inc.RunFiles(files, cks, opts)
	}
	s.m.scans.Inc()
	s.observeScan(r.Context(), res)
	if res.Canceled {
		s.m.scansCanceled.Inc()
	}
	if req.ShardLocal && s.shard != nil {
		s.shard.subScans.Inc()
	}
	// Shard-local sub-scans carry the per-file cut list: it is what lets
	// a coordinator splice this partial back into global file order.
	resp := api.ScanResult(ck.Name(), res, req.IncludeTrace, req.ShardLocal)
	s.m.reportsServed.Add(float64(len(resp.Reports)))
	attachTiming(r.Context(), &resp.TraceID, &resp.Timing, req.IncludeTiming)
	s.writeOK(w, res.Generation, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if len(req.Checkers) == 0 {
		s.reject(w, http.StatusBadRequest, api.ErrBadRequest, "missing 'checkers' (list of DSL texts)")
		return
	}
	// Cost-weighted admission: a /batch weighs checkers x files, so the
	// tenant shipping 50 checkers over the full corpus is charged 50
	// corpus scans, not one request.
	release, ok := s.adm.admitCost(w, s.requestCost(len(req.Checkers), req.Files))
	if !ok {
		return
	}
	defer release()

	// Compile every checker first; a bad revision gets a per-entry error
	// instead of failing its siblings.
	resp := &api.BatchResponse{Results: make([]*api.ScanResponse, len(req.Checkers))}
	var cks []checker.Checker
	var live []int // request index of each compiled checker
	for i, src := range req.Checkers {
		ck, err := ckdsl.CompileSource(src)
		if err != nil {
			resp.Results[i] = &api.ScanResponse{Error: "checker does not compile: " + err.Error()}
			resp.CheckerErrors++
			s.m.scanErrors.Inc()
			continue
		}
		cks = append(cks, ck)
		live = append(live, i)
	}
	if !s.awaitMinGeneration(w, r, req.MinGeneration) {
		return
	}
	files, err := s.resolveFiles(req.Files)
	if err != nil {
		s.reject(w, http.StatusNotFound, api.ErrNotFound, err.Error())
		return
	}
	start := time.Now()
	var agg api.CacheStats
	if s.shard != nil && !req.ShardLocal && len(cks) > 0 {
		if !s.scatterBatch(w, r, &req, resp, cks, live) {
			return
		}
	} else {
		// Default for an all-errors batch (nothing scanned): the live
		// generation; any actual result overwrites it with the pinned
		// one. No corpus lock: RunBatch pins ONE snapshot for the whole
		// batch, so every entry scans the same generation even while
		// changesets commit concurrently.
		resp.Generation = s.inc.Codebase().Generation()
		results := s.inc.RunBatch(cks, files,
			scanOptions(r.Context(), req.MaxReports, req.Workers, req.FuncTimeoutMS), 0)
		s.observeScan(r.Context(), results...)
		if req.ShardLocal && s.shard != nil {
			s.shard.subScans.Inc()
		}
		for bi, res := range results {
			resp.Results[live[bi]] = api.ScanResult(cks[bi].Name(), res, req.IncludeTrace, req.ShardLocal)
			resp.Generation = res.Generation
		}
	}
	// Entry accounting is the same however the entries were produced.
	for _, i := range live {
		m := resp.Results[i]
		s.m.reportsServed.Add(float64(len(m.Reports)))
		if m.Canceled {
			s.m.scansCanceled.Inc()
		}
		agg.Hits += m.Cache.Hits
		agg.Misses += m.Cache.Misses
	}
	agg.HitRate = store.Stats{Hits: int64(agg.Hits), Misses: int64(agg.Misses)}.HitRate()
	resp.CheckersRun = len(cks)
	resp.Cache = agg
	resp.ElapsedMS = elapsedMS(start)
	attachTiming(r.Context(), &resp.TraceID, &resp.Timing, req.IncludeTiming)
	s.m.batches.Inc()
	s.m.scans.Add(float64(len(cks)))
	s.writeOK(w, resp.Generation, resp)
}
