package serve

import (
	"net/http"

	"knighter/internal/api"
	"knighter/internal/obs"
)

// handleTrace serves GET /trace/{id}: the cross-host assembled span
// tree for one trace.
//
// Two forms share the route. ?local=1 returns this process's raw
// fragment and never fans out — it is what peers ask each other, and
// the loop guard. The default form gathers: this replica's own fragment
// plus, best-effort, every shard peer's and kcached's (per-peer
// timeout; a dead or sampled-out peer contributes nothing and the tree
// shows the gap as an orphan), then merges them into one offset-ordered
// tree. ?format=text renders the waterfall instead of JSON.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("local") == "1" {
		s.traces.ServeTrace(w, r)
		return
	}
	id := r.PathValue("id")
	frags := s.traceColl.Collect(r.Context(), id)
	if local, ok := s.traces.Get(id); ok {
		frags = append([]*obs.StoredTrace{local}, frags...)
	}
	if len(frags) == 0 {
		s.httpError(w, http.StatusNotFound, api.ErrNotFound,
			"trace not retained anywhere reachable (sampled out, evicted, or never existed)")
		return
	}
	asm := obs.AssembleTrace(id, frags)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(asm.Waterfall()))
		return
	}
	s.writeOK(w, s.inc.Codebase().Generation(), asm)
}
