package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"knighter/internal/api"
	"knighter/internal/obs"
	"knighter/internal/scan"
)

// Config wires a Scatter: the partition ring, this replica's own shard
// index, the peer base URLs (index-aligned with shards), and the
// per-shard sub-request budget.
type Config struct {
	Ring Ring
	// Self is this replica's shard index; its partition is always
	// scanned locally.
	Self int
	// Peers are the shard base URLs in shard-index order
	// (Peers[Self] names this replica and is never dialed).
	Peers []string
	// Timeout bounds each remote sub-request (default 60s). A shard
	// that does not answer within it is treated as dead for this
	// scatter and its partition falls back to the local snapshot.
	Timeout time.Duration
	// Table is Ring's partition of the whole corpus, built once: a Batch
	// without Paths covers it, and its sub-batches name their partition
	// by reference.
	Table *Table
}

// Hooks receives scatter-path observability events; any field may be
// nil.
type Hooks struct {
	// FanoutDone fires once per shard per scatter with the partition's
	// wall time (however it was served).
	FanoutDone func(s int, d time.Duration)
	// Degraded fires when a remote partition fell back to the local
	// snapshot because the shard failed or timed out.
	Degraded func(s int)
	// PeerHealth fires whenever a sub-request to shard s completes,
	// with the observed health.
	PeerHealth func(s int, healthy bool)
}

// Local recomputes one partition's sub-responses on the coordinator's
// own pinned snapshot — the fallback path. For a scan the slice has one
// entry; for a batch, one per checker. Implementations must honor ctx
// cancellation.
type Local func(ctx context.Context, files []string) ([]*api.ScanResponse, error)

// Scatter fans scan work out across the shard fleet and gathers the
// partials back. One Scatter lives for the daemon's lifetime.
type Scatter struct {
	cfg    Config
	hooks  Hooks
	client *http.Client
	// peerOK[s] is shard s's last-observed health: flipped false when a
	// sub-request to it fails, true again when one succeeds. Self stays
	// true.
	peerOK []atomic.Bool
}

// NewScatter builds a Scatter over cfg.
func NewScatter(cfg Config, hooks Hooks) *Scatter {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	sc := &Scatter{cfg: cfg, hooks: hooks, peerOK: make([]atomic.Bool, cfg.Ring.Count)}
	sc.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        32,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     90 * time.Second,
	}}
	for i := range sc.peerOK {
		sc.peerOK[i].Store(true)
	}
	return sc
}

// PeerHealth reports each shard's last-observed health, indexed by
// shard (self is always true).
func (sc *Scatter) PeerHealth() []bool {
	out := make([]bool, len(sc.peerOK))
	for i := range sc.peerOK {
		out[i] = sc.peerOK[i].Load()
	}
	return out
}

// Info summarizes one scatter call.
type Info struct {
	// Shards is the number of non-empty partitions fanned out.
	Shards int
	// Degraded counts partitions that fell back to the local snapshot
	// after their shard failed.
	Degraded int
}

// ScanJob is one coordinated scan of a single checker as shard-local
// /scan sub-requests: the sub-request template (checker, min
// generation — Files and ShardLocal are filled per shard), the compiled checker's display name, the full ordered path
// list, and the local fallback. kserve coordinates a /scan as a
// one-checker Batch; benchmark/probes.go times the scatter through Scan.
type ScanJob struct {
	Req   api.ScanRequest
	Name  string
	Paths []string
	Local Local
}

// Scan scatters job across the fleet and merges the partials into the
// single-host response. MaxReports is applied after the merge (the
// sub-requests run uncapped so no shard under-reports its partition).
func (sc *Scatter) Scan(ctx context.Context, job ScanJob) (*api.ScanResponse, Info, error) {
	remote := func(rctx context.Context, s int, files []string) ([]*api.ScanResponse, error) {
		sub := job.Req
		sub.Files = files
		sub.ShardLocal = true
		sub.MaxReports = 0
		sub.IncludeTiming = false
		var resp api.ScanResponse
		if err := sc.post(rctx, s, "/scan", sub, func(body io.Reader) error {
			return json.NewDecoder(body).Decode(&resp)
		}); err != nil {
			return nil, err
		}
		return []*api.ScanResponse{&resp}, nil
	}
	parts, info, err := sc.fanout(ctx, sc.cfg.Ring.Partition(job.Paths), remote, job.Local)
	if err != nil {
		return nil, info, err
	}
	flat := make([]*api.ScanResponse, len(parts))
	for s, p := range parts {
		if p != nil {
			flat[s] = p[0]
		}
	}
	merged, err := MergeScan(job.Name, job.Paths, sc.cfg.Ring, flat, job.Req.MaxReports)
	return merged, info, err
}

// SubBatchPath is the route a Batch posts each shard its sub-batch to:
// a shard-local batch that kserve serves behind a sub-batch gate of its
// own rather than its read gate, since the coordinator's read gate
// already admitted the work. The request is a JSON api.BatchRequest
// naming its files by partition reference (whole-corpus reads) or by
// path; the reply is binary (EncodeSubBatch). A peer that predates the
// route answers 404, and one whose partition table differs answers 409;
// either way the partition degrades to the local snapshot.
const SubBatchPath = "/shard/batch"

// BatchJob is one coordinated /batch over the checkers that compiled;
// Names[i] labels Req.Checkers[i] in the merged responses. Paths is the
// ordered file list the batch covers, or empty for the whole corpus of
// the Scatter's Table.
type BatchJob struct {
	Req   api.BatchRequest
	Names []string
	Paths []string
	Local Local
}

// Batch scatters job and merges per-checker: result[i] is what a
// single-host scan of checker i over the job's files would have
// produced.
func (sc *Scatter) Batch(ctx context.Context, job BatchJob) ([]*api.ScanResponse, Info, error) {
	paths, partitions := job.Paths, [][]string(nil)
	if len(paths) == 0 {
		if sc.cfg.Table == nil {
			return nil, Info{}, fmt.Errorf("shard: a whole-corpus batch needs the scatter's partition table")
		}
		paths, partitions = sc.cfg.Table.Paths, sc.cfg.Table.Parts
	} else {
		partitions = sc.cfg.Ring.Partition(paths)
	}
	remote := func(rctx context.Context, s int, files []string) ([]*api.ScanResponse, error) {
		sub := job.Req
		if len(job.Paths) == 0 {
			ref := sc.cfg.Table.Ref(s)
			sub.Partition = &ref
		} else {
			sub.Files = files
		}
		sub.MaxReports = 0
		sub.IncludeTiming = false
		var results []*scan.Result
		if err := sc.post(rctx, s, SubBatchPath, sub, func(body io.Reader) error {
			data, err := io.ReadAll(body)
			if err == nil {
				results, err = DecodeSubBatch(data)
			}
			return err
		}); err != nil {
			return nil, err
		}
		if len(results) != len(job.Req.Checkers) {
			return nil, fmt.Errorf("shard %d: %d batch entries for %d checkers", s, len(results), len(job.Req.Checkers))
		}
		out := make([]*api.ScanResponse, len(results))
		for i, res := range results {
			out[i] = api.ScanResult(job.Names[i], res, sub.IncludeTrace, true)
		}
		return out, nil
	}
	parts, info, err := sc.fanout(ctx, partitions, remote, job.Local)
	if err != nil {
		return nil, info, err
	}
	merged := make([]*api.ScanResponse, len(job.Req.Checkers))
	for i := range job.Req.Checkers {
		flat := make([]*api.ScanResponse, len(parts))
		for s, p := range parts {
			if p != nil {
				flat[s] = p[i]
			}
		}
		m, err := MergeScan(job.Names[i], paths, sc.cfg.Ring, flat, job.Req.MaxReports)
		if err != nil {
			return nil, info, err
		}
		merged[i] = m
	}
	return merged, info, nil
}

// fanout runs every non-empty partition (indexed by shard)
// concurrently: self locally, remote shards via remote() with timeout
// and local fallback. parts is indexed by shard.
func (sc *Scatter) fanout(ctx context.Context, partitions [][]string,
	remote func(ctx context.Context, s int, files []string) ([]*api.ScanResponse, error),
	local Local) ([][]*api.ScanResponse, Info, error) {

	parts := make([][]*api.ScanResponse, len(partitions))
	errs := make([]error, len(partitions))
	var degraded atomic.Int64
	var info Info
	tr := obs.TraceFrom(ctx)

	var wg sync.WaitGroup
	for s, files := range partitions {
		if len(files) == 0 {
			continue
		}
		info.Shards++
		wg.Add(1)
		go func(s int, files []string) {
			defer wg.Done()
			begin := time.Now()
			// Pre-mint the partition's span id so the sub-request can
			// carry it as X-Span-Id while the span is still open — the
			// shard owner's fragment then attaches under THIS span, not
			// the coordinator's root.
			sid := tr.NewChildSpanID()
			status := ""
			defer func() {
				d := time.Since(begin)
				tr.ObserveWith(sid, fmt.Sprintf("shard_%d", s), status, begin, d, len(files))
				if sc.hooks.FanoutDone != nil {
					sc.hooks.FanoutDone(s, d)
				}
			}()
			if s == sc.cfg.Self || s >= len(sc.cfg.Peers) || sc.cfg.Peers[s] == "" {
				parts[s], errs[s] = local(ctx, files)
				return
			}
			rctx := ctx
			if sid != "" {
				rctx = obs.WithParentSpan(ctx, sid)
			}
			var d bool
			parts[s], d, errs[s] = sc.runRemote(rctx, s, files, remote, local)
			if d {
				status = obs.SpanDegraded
				tr.MarkDegraded()
				degraded.Add(1)
				if sc.hooks.Degraded != nil {
					sc.hooks.Degraded(s)
				}
			}
		}(s, files)
	}
	wg.Wait()
	info.Degraded = int(degraded.Load())
	for _, err := range errs {
		if err != nil {
			return nil, info, err
		}
	}
	return parts, info, nil
}

// runRemote serves one remote partition: the sub-request, bounded by
// the timeout, then on failure the same partition recomputed on the
// local snapshot (slower, never wrong). degraded reports that fallback.
func (sc *Scatter) runRemote(ctx context.Context, s int, files []string,
	remote func(ctx context.Context, s int, files []string) ([]*api.ScanResponse, error),
	local Local) (part []*api.ScanResponse, degraded bool, err error) {

	rctx, cancel := context.WithTimeout(ctx, sc.cfg.Timeout)
	part, err = remote(rctx, s, files)
	cancel()
	sc.peerOK[s].Store(err == nil)
	if sc.hooks.PeerHealth != nil {
		sc.hooks.PeerHealth(s, err == nil)
	}
	if err == nil {
		return part, false, nil
	}
	part, err = local(ctx, files)
	return part, true, err
}

// post issues one JSON sub-request to shard s and hands a 2xx reply's
// body to decode. Any transport error or non-2xx status is a shard
// failure from the scatter's point of view — including a 409 from a
// shard that could not converge to the required generation in time, or
// holds another partition table, which the local fallback then covers.
func (sc *Scatter) post(ctx context.Context, s int, path string, body any, decode func(io.Reader) error) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sc.cfg.Peers[s]+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.InjectHeaders(ctx, req.Header)
	resp, err := sc.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("shard %d: %s %s: %s", s, path, resp.Status, msg)
	}
	return decode(resp.Body)
}
