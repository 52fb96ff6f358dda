package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
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
	// Write cost is ops: each change is one staged parse + commit entry.
	release, ok := s.wadm.admitCost(w, int64(len(changes)))
	if !ok {
		return
	}
	defer release()

	start := time.Now()
	if req.Async {
		// Reserve a generation token and return immediately; the commit
		// proceeds in the background in token order. The token is the
		// client's read-your-writes handle: pass it as min_generation on
		// a later /scan, or poll /changeset/status?generation=N.
		a := s.inc.ApplyChangesetAsync(changes)
		s.m.asyncChangesets.Inc()
		s.asyncLedger.record(a.Generation)
		go s.settleAsync(context.WithoutCancel(r.Context()), a, start, req.Changes)
		s.writeJSONGen(w, http.StatusAccepted, a.Generation, &api.ChangesetResponse{
			Async:      true,
			Status:     api.StatusPending,
			Generation: a.Generation,
			ElapsedMS:  elapsedMS(start),
		})
		return
	}

	// Sync path: no request-wide lock. The changeset stages off to the
	// side and commits with a pointer swap — in-flight scans keep their
	// pinned snapshots and are never drained.
	cs, err := s.inc.ApplyChangeset(changes)
	if err != nil {
		s.reject(w, http.StatusUnprocessableEntity, api.ErrUnprocessable, err.Error())
		return
	}
	st := s.committed(r.Context(), cs, start, req.Changes)
	s.writeOK(w, cs.Generation, &api.ChangesetResponse{
		Status:           st.Status,
		Ops:              st.Ops,
		Files:            st.Files,
		ChangedFuncs:     st.ChangedFuncs,
		StaleHashes:      st.StaleHashes,
		StoreInvalidated: st.StoreInvalidated,
		Generation:       st.Generation,
		ElapsedMS:        elapsedMS(start),
	})
}

// committed accounts one committed changeset — request arrival to
// generation swap — publishes it to the fleet feed, and returns its
// outcome in the wire shape both the sync reply and the async ledger
// carry.
func (s *Server) committed(ctx context.Context, cs *scan.Changeset, start time.Time, changes []api.Change) *api.ChangesetStatus {
	s.m.changesets.Inc()
	s.m.commit.Observe(time.Since(start).Seconds())
	s.shardPublish(ctx, cs.Generation, changes)
	st := &api.ChangesetStatus{
		Generation:       cs.Generation,
		Status:           api.StatusCommitted,
		Ops:              cs.Ops,
		ChangedFuncs:     cs.Changed,
		StaleHashes:      len(cs.StaleHashes),
		StoreInvalidated: cs.StoreInvalidated,
	}
	for _, fc := range cs.Files {
		st.Files = append(st.Files, fc.Path)
	}
	return st
}

// settleAsync waits for an async changeset to commit (or fail) and
// records the outcome in the ledger so /changeset/status can report it.
// Either way the token's generation goes to the fleet feed: a committed
// changeset with its changes, a rejected one EMPTY — the coordinator
// burned the generation with an empty commit, and peers must burn the
// same one or every later feed entry is a gap to them.
func (s *Server) settleAsync(ctx context.Context, a *scan.AsyncChangeset, start time.Time, changes []api.Change) {
	cs, err := a.Result()
	if err != nil {
		s.m.scanErrors.Inc()
		s.shardPublish(ctx, a.Generation, nil)
		s.asyncLedger.settle(a.Generation, &api.ChangesetStatus{
			Generation: a.Generation,
			Status:     api.StatusFailed,
			Error:      err.Error(),
		})
		return
	}
	s.asyncLedger.settle(a.Generation, s.committed(ctx, cs, start, changes))
}

// asyncLedger remembers the outcome of recent async changesets, keyed by
// their reserved generation token. Bounded FIFO: old entries age out once
// the ledger exceeds asyncLedgerCap, so a long-lived daemon under a
// changeset storm cannot grow without bound.
const asyncLedgerCap = 1024

type asyncLedger struct {
	mu    sync.Mutex
	byGen map[int64]*api.ChangesetStatus
	order []int64
}

func (l *asyncLedger) init() {
	l.byGen = make(map[int64]*api.ChangesetStatus)
}

func (l *asyncLedger) record(gen int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.byGen[gen] = &api.ChangesetStatus{Generation: gen, Status: api.StatusPending}
	l.order = append(l.order, gen)
	for len(l.order) > asyncLedgerCap {
		delete(l.byGen, l.order[0])
		l.order = l.order[1:]
	}
}

func (l *asyncLedger) settle(gen int64, st *api.ChangesetStatus) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.byGen[gen]; ok {
		l.byGen[gen] = st
	}
}

func (l *asyncLedger) lookup(gen int64) (*api.ChangesetStatus, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.byGen[gen]
	return st, ok
}

// handleChangesetStatus reports the outcome of an async changeset by its
// generation token: pending, committed (with the commit's accounting), or
// failed (with the rejection reason — the token's generation was burned
// by an empty commit, so min_generation waits on it still resolve).
func (s *Server) handleChangesetStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.httpError(w, http.StatusMethodNotAllowed, api.ErrMethodNotAllowed, "GET only")
		return
	}
	gen, err := strconv.ParseInt(r.URL.Query().Get("generation"), 10, 64)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, api.ErrBadRequest, "missing or bad 'generation' query parameter")
		return
	}
	st, ok := s.asyncLedger.lookup(gen)
	if !ok {
		s.httpError(w, http.StatusNotFound, api.ErrNotFound, fmt.Sprintf("no async changeset recorded for generation %d", gen))
		return
	}
	s.writeOK(w, s.inc.Codebase().Generation(), st)
}
