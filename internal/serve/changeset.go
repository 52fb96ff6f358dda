package serve

import (
	"fmt"
	"net/http"
	"time"

	"knighter/internal/api"
	"knighter/internal/scan"
)

// toScanChanges maps wire changes onto the scheduler's.
func toScanChanges(in []api.Change) []scan.Change {
	out := make([]scan.Change, len(in))
	for i, c := range in {
		out[i] = scan.Change{Path: c.Path, Func: c.Func, Source: c.Source}
	}
	return out
}

func (s *Server) handleChangeset(w http.ResponseWriter, r *http.Request) {
	var req api.ChangesetRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if len(req.Changes) == 0 {
		s.reject(w, http.StatusBadRequest, api.ErrBadRequest, "missing 'changes' (list of file updates)")
		return
	}
	for i, c := range req.Changes {
		if c.Path == "" || c.Source == "" {
			s.reject(w, http.StatusBadRequest, api.ErrBadRequest, fmt.Sprintf("change %d: missing 'path' or 'source'", i))
			return
		}
	}
	changes := toScanChanges(req.Changes)

	// No request-wide lock: the changeset stages off to the side and
	// commits with a pointer swap — in-flight scans keep their pinned
	// snapshots and are never drained. A fleet replica commits under its
	// writer lock, pushing the changeset to its peers first.
	start := time.Now()
	var cs *scan.Changeset
	var err error
	if s.shard != nil {
		cs, err = s.shardCommit(r.Context(), req.Changes, changes)
	} else {
		cs, err = s.inc.ApplyChangeset(changes)
	}
	if err != nil {
		s.reject(w, http.StatusUnprocessableEntity, api.ErrUnprocessable, err.Error())
		return
	}
	s.m.changesets.Inc()
	s.m.commit.Observe(time.Since(start).Seconds())
	resp := &api.ChangesetResponse{
		Status:           api.StatusCommitted,
		Generation:       cs.Generation,
		Ops:              cs.Ops,
		ChangedFuncs:     cs.Changed,
		StaleHashes:      len(cs.StaleHashes),
		StoreInvalidated: cs.StoreInvalidated,
		ElapsedMS:        elapsedMS(start),
	}
	for _, fc := range cs.Files {
		resp.Files = append(resp.Files, fc.Path)
	}
	s.writeOK(w, cs.Generation, resp)
}
