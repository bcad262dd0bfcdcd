package service

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Scatter-gather execution: the service's one executor for collection
// queries. The plan is made once; its fragment runs on every shard in
// parallel, each shard pinned to its own batcher-fronted device (so
// concurrent fragments' kernels fuse exactly like concurrent
// requests'); the partial results merge at the service layer:
//
//   - filters/projections: per-shard counts sum, row sets concatenate in
//     shard order;
//   - ordered top-k: each shard sorts and trims its own rows, the
//     service runs a k-way heap merge over the sorted streams;
//   - similarity joins: one local self-join task per shard plus one
//     cross task per shard pair (left rows from shard i probe shard j),
//     pair lists concatenate;
//   - cluster/distinct queries: pairs from every task re-cluster at the
//     gather stage (union-find over the concatenated fragments).
//
// A plain DB (service.New) is the one-shard case: the fragment IS the
// whole plan, the merge is the identity and the plan string carries no
// scatter decoration. The golden files under testdata pin its values,
// rows, plan strings, fingerprints and cost estimates.

// shardFragment is one shard's partial result after the filter stage.
type shardFragment struct {
	filtered []*core.Patch
	rows     []*core.Patch // sorted/trimmed projection input (order/limit)
	csel     *columnSelection
	topk     core.ScanStats // columnar top-k segment work (zero on the row path)
	planOps  []string
	cost     float64
}

// annotate attaches the fragment's work record to its trace span:
// which shard ran, how many rows it held and matched, the access path,
// when the filter ran columnar the zone-map pruning and column-extension
// outcome, and the spilled segments the filter and top-k faulted in
// (seg_loads), found resident (seg_hits) or never visited
// (topk_segs_skipped). No-op on untraced queries (nil handle).
func (f *shardFragment) annotate(sp *obs.SpanHandle, shard, snapRows int) {
	if sp == nil {
		return
	}
	sp.AttrInt("shard", int64(shard))
	sp.AttrInt("rows", int64(snapRows))
	sp.AttrInt("matched", int64(len(f.filtered)))
	path := "full-scan"
	if len(f.planOps) > 0 {
		path = f.planOps[0]
	}
	sp.Attr("path", path)
	if c := f.csel; c != nil || f.topk.Blocks > 0 {
		seg := f.topk
		if c != nil {
			seg.Add(c.scan)
		}
		sp.AttrInt("seg_loads", int64(seg.SegLoads))
		sp.AttrInt("seg_hits", int64(seg.SegHits))
		sp.AttrInt("topk_segs_skipped", int64(seg.TopKSkipped))
	}
	if c := f.csel; c != nil {
		sp.AttrInt("blocks", int64(c.scan.Blocks))
		sp.AttrInt("blocks_pruned", int64(c.scan.Pruned))
		sp.AttrInt("rows_scanned", int64(c.scan.RowsScanned))
		switch {
		case c.colInfo.Extended:
			sp.Attr("columns", "extended")
		case c.colInfo.Built:
			sp.Attr("columns", "built")
		default:
			sp.Attr("columns", "cached")
		}
	}
}

// taskDev returns the batcher-fronted device scatter task t of an
// nsh-shard query is pinned to. Shard-local task i maps to device
// i%Devices, so a shard's kernels always land on the same scheduler;
// cross tasks continue round-robin. A one-shard query runs on the
// worker's own device, so kernel fusion and per-device load follow the
// worker pool rather than piling onto device 0.
func (s *Service) taskDev(w *worker, nsh, t int) *exec.Batcher {
	if nsh == 1 {
		return w.dev
	}
	return s.batchers[t%len(s.batchers)]
}

// scatterWave runs n independent scatter tasks concurrently and returns
// the first error. A single task runs inline (the N=1 path adds no
// goroutine overhead).
func (s *Service) scatterWave(n int, fn func(t int) error) error {
	s.tel.scatterTasks.Add(int64(n))
	if n == 1 {
		return fn(0)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for t := 0; t < n; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			if err := fn(t); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	return first
}

// executeScatter runs the filter -> simjoin -> distinct -> order/limit
// pipeline as plan-once, scatter-everywhere, merge-at-the-top. Each
// shard's fragment runs as a hedged, deadline-aware read over the
// shard's in-sync replicas (see hedge.go); when every replica of a
// shard fails and the request allows partial results, the gather stage
// degrades instead of erroring.
func (s *Service) executeScatter(ctx context.Context, w *worker, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scol, err := s.shards.Collection(req.Collection)
	if err != nil {
		return nil, err
	}
	nsh := scol.Shards()
	s.tel.scatterQueries.Inc()
	s.tel.fanout.Observe(float64(nsh))

	// Plan once: resolve and type-check the filter constant (or range
	// bounds) against the schema before fanning anything out.
	var fval core.Value
	if f := req.Filter; f != nil {
		if f.isRange() {
			if err := scol.Schema().ValidateFilterRange(f.Field); err != nil {
				return nil, err
			}
		} else {
			fval, err = f.value()
			if err != nil {
				return nil, err
			}
			if err := scol.Schema().ValidateFilterValue(f.Field, fval); err != nil {
				return nil, err
			}
		}
	}

	// Effective row limit: requests cap at maxRows, zero means "rows
	// only if order/limit was asked for".
	limit := req.Limit
	if limit <= 0 || limit > maxRows {
		limit = maxRows
	}
	wantRows := req.OrderBy != "" || req.Limit > 0

	// Partial-tolerant queries under a deadline cut their fragments
	// slightly early, so the gather stage still has time to assemble and
	// return the surviving shards' answer before the 504 would fire.
	fctx := ctx
	if req.AllowPartial {
		if dl, ok := ctx.Deadline(); ok {
			margin := time.Until(dl) / 10
			if margin < time.Millisecond {
				margin = time.Millisecond
			}
			if margin > 100*time.Millisecond {
				margin = 100 * time.Millisecond
			}
			var fcancel context.CancelFunc
			fctx, fcancel = context.WithDeadline(ctx, dl.Add(-margin))
			defer fcancel()
		}
	}

	// ---- scatter: per-shard hedged filter (+ local sort/trim) fragments ----
	frags := make([]*shardFragment, nsh)
	errs := make([]error, nsh)
	s.scatterWave(nsh, func(i int) error {
		frags[i], errs[i] = s.hedgedFragment(fctx, req, fval, scol, i, limit, wantRows)
		return nil // per-shard outcomes are judged below, not first-error
	})
	missing, err := s.missingShards(ctx, req, errs)
	if err != nil {
		return nil, err
	}

	if req.SimJoin != nil {
		return s.simJoinScatter(ctx, w, req, scol, frags, missing)
	}

	// ---- gather: sum counts, merge rows (nil frags = missing shards) ----
	mergeStart := time.Now()
	mg := req.tr.Begin("merge")
	resp := &Response{Degraded: len(missing) > 0, MissingShards: missing}
	total := 0
	var planOps []string
	for _, frag := range frags {
		if frag == nil {
			continue
		}
		if planOps == nil {
			planOps = append([]string{}, frag.planOps...)
		}
		total += len(frag.filtered)
		resp.EstCostSec += frag.cost
	}
	resp.Value = total

	if wantRows {
		var merged []*core.Patch
		if req.OrderBy != "" {
			merged, err = mergeSortedRows(ctx, frags, req.OrderBy, req.Desc, limit)
			if err != nil {
				mg.End()
				return nil, err
			}
			planOps = append(planOps, "order-by("+req.OrderBy+")")
		} else {
			for _, frag := range frags {
				if frag == nil {
					continue
				}
				merged = append(merged, frag.rows...)
				if len(merged) >= limit {
					merged = merged[:limit]
					break
				}
			}
		}
		resp.Rows = projectRows(merged)
		if req.Limit > 0 {
			planOps = append(planOps, fmt.Sprintf("limit(%d)", req.Limit))
		}
	}
	if len(planOps) == 0 {
		planOps = append(planOps, "scan-count")
	}
	resp.Plan = s.scatterPlan(nsh, 0, planOps, gatherLabel(req))
	mg.Attr("gather", gatherLabel(req)).AttrInt("rows", int64(len(resp.Rows))).End()
	s.mergeNS.Add(time.Since(mergeStart).Nanoseconds())
	return resp, nil
}

// missingShards judges the scatter wave's per-shard outcomes: the
// query's own timeout or cancellation dominates; otherwise failed
// shards fail the query unless it allows partial results and at least
// one shard answered, in which case they are returned as missing and
// the query counts as degraded.
func (s *Service) missingShards(ctx context.Context, req *Request, errs []error) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var missing []int
	var shardErr error
	for i, e := range errs {
		if e != nil {
			missing = append(missing, i)
			if shardErr == nil {
				shardErr = fmt.Errorf("shard %d: %w", i, e)
			}
		}
	}
	if len(missing) > 0 && (!req.AllowPartial || len(missing) == len(errs)) {
		return nil, shardErr
	}
	if len(missing) > 0 {
		s.tel.degradedQueries.Inc()
	}
	return missing, nil
}

// gatherLabel names the merge strategy for plain (non-join) queries.
func gatherLabel(req *Request) string {
	switch {
	case req.OrderBy != "":
		return "gather-merge"
	case req.Limit > 0:
		return "gather-concat"
	default:
		return "gather-count"
	}
}

// scatterPlan renders the physical plan string. One shard renders the
// fragment pipeline undecorated; more shards wrap it in a
// scatter[N(+C)] -> gather decoration, C being the cross-shard join
// task count.
func (s *Service) scatterPlan(nsh, cross int, fragOps []string, gather string) string {
	if nsh == 1 {
		return joinPlan(fragOps)
	}
	fan := fmt.Sprintf("%d", nsh)
	if cross > 0 {
		fan = fmt.Sprintf("%d+%d", nsh, cross)
	}
	return fmt.Sprintf("scatter[%s](%s) -> %s", fan, joinPlan(fragOps), gather)
}

// filterFragment runs the filter stage of the plan on replica r of
// shard i's snapshot: the replica-local hash index (equality) or B-tree
// (range) when the plan asks for one, else the columnar scan, else the
// row scan. Each access path reports its duration to the shared cost
// model. The index-fetch and row-scan loops check ctx every
// ctxCheckRows rows, so a canceled caller (or a hedge loser) stops
// promptly instead of burning the full scan.
func (s *Service) filterFragment(ctx context.Context, req *Request, fval core.Value, scol *core.ShardedCollection, i, r int, snap []*core.Patch) (*shardFragment, error) {
	frag := &shardFragment{filtered: snap}
	f := req.Filter
	if f == nil {
		return frag, nil
	}
	start := time.Now()
	col := scol.Replica(i, r)
	method, units := core.FilterScan, len(snap)
	var err error
	if f.UseIndex {
		var ids []core.PatchID
		if method, ids, err = s.indexLookup(col, i, r, f, fval); err == nil {
			units = len(ids)
			frag.filtered, err = fetchPatches(ctx, col, ids)
		}
	} else if frag.csel = columnFilter(col, f, fval, len(snap)); frag.csel != nil {
		method, frag.filtered = core.FilterColumnScan, frag.csel.rows
	} else {
		frag.filtered, err = rowFilter(ctx, snap, f, fval)
	}
	if err != nil {
		return nil, err
	}
	frag.planOps = []string{fmt.Sprintf("%s(%s)", method, f.Field)}
	frag.cost = s.cost.FilterCost(method, len(snap), units)
	s.cost.ObserveFilter(method, units, time.Since(start))
	return frag, nil
}

// indexLookup probes replica r of shard i's index on the filter field
// (hash for equality, B-tree for a range), building it if the
// collection moved past it, and returns the access method and the
// matching ids.
func (s *Service) indexLookup(col *core.Collection, i, r int, f *FilterSpec, v core.Value) (core.FilterMethod, []core.PatchID, error) {
	method, kind := core.FilterHashIndex, core.IdxHash
	if f.isRange() {
		method, kind = core.FilterBTreeIndex, core.IdxBTree
	}
	idx, err := s.ensureIndexOn(s.shards.ReplicaDB(i, r), replicaScope(i, r), col, f.Field, kind)
	if err != nil {
		return method, nil, err
	}
	var ids []core.PatchID
	if f.isRange() {
		lo, hi := f.bounds()
		ids, err = btreeRangeIDs(idx, lo, hi)
	} else {
		ids, err = idx.LookupEq(v)
	}
	return method, ids, err
}

// fetchPatches resolves index hits to patches in id order.
func fetchPatches(ctx context.Context, col *core.Collection, ids []core.PatchID) ([]*core.Patch, error) {
	out := make([]*core.Patch, 0, len(ids))
	for k, id := range ids {
		if k%ctxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		p, err := col.Get(id)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ctxCheckRows is the row stride between cancellation checks in scan
// loops: frequent enough to abandon a dead query promptly, sparse
// enough that the atomic ctx.Err() load never shows up in profiles.
const ctxCheckRows = 4096

// shardScope disambiguates per-shard index-build locks.
func shardScope(i int) string { return fmt.Sprintf("shard%d", i) }

// replicaScope disambiguates per-replica index-build locks. The primary
// keeps the historical shard-scope key.
func replicaScope(i, r int) string {
	if r == 0 {
		return shardScope(i)
	}
	return fmt.Sprintf("shard%d-r%d", i, r)
}

// joinTask is one unit of the similarity-join scatter wave: a shard's
// local self-join, or the cross join between a pair of shards.
type joinTask struct {
	left, right int // shard indexes; left == right is a local self-join
	pairs       []core.Tuple
	cost        float64
	label       string
}

// simJoinScatter executes the similarity-join stage: every shard
// self-joins its own fragment and every shard pair cross-joins (left
// fragment against right fragment), all tasks in parallel on their
// pinned devices; pair lists concatenate at the gather stage, and
// distinct queries re-cluster over the union. Shards listed in missing
// have nil fragments (every replica failed under allow_partial): they
// contribute no tasks, and the degraded pair set covers only the
// surviving shards.
func (s *Service) simJoinScatter(ctx context.Context, w *worker, req *Request, scol *core.ShardedCollection, frags []*shardFragment, missing []int) (*Response, error) {
	sj := req.SimJoin
	nsh := len(frags)

	// Vector dimensionality, from the schema or the first surviving row.
	dim := 0
	if fd := scol.Schema().FieldNamed(sj.Field); fd != nil {
		dim = fd.VecDim
	}
	if dim == 0 {
		for _, frag := range frags {
			if frag != nil && len(frag.filtered) > 0 {
				if mv, ok := frag.filtered[0].Meta[sj.Field]; ok {
					dim = len(mv.V)
				}
				break
			}
		}
	}
	// A prebuilt (shard-local) index can only serve an unfiltered join.
	hasIndex := sj.UseIndex && req.Filter == nil

	// Task list: one local self-join per surviving shard, then one cross
	// task per non-empty surviving shard pair.
	tasks := make([]*joinTask, 0, nsh+nsh*(nsh-1)/2)
	for i := 0; i < nsh; i++ {
		if frags[i] == nil {
			continue
		}
		tasks = append(tasks, &joinTask{left: i, right: i})
	}
	cross := 0
	for i := 0; i < nsh; i++ {
		for j := i + 1; j < nsh; j++ {
			if frags[i] == nil || frags[j] == nil {
				continue
			}
			if len(frags[i].filtered) == 0 || len(frags[j].filtered) == 0 {
				continue // an empty side can contribute no cross pairs
			}
			tasks = append(tasks, &joinTask{left: i, right: j})
			cross++
		}
	}

	err := s.scatterWave(len(tasks), func(t int) error {
		task := tasks[t]
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.inj.Stall(ctx, fault.DeviceStall, task.left, 0); err != nil {
			return err
		}
		dev := s.taskDev(w, nsh, t)
		// Join tasks submit kernels: register with the device's batcher so
		// its adaptive flush knows a submitter is mid-query (default flush
		// policy only — an explicit BatchWindow is honored strictly).
		if s.adaptive {
			dev.BeginSubmitter()
			defer dev.EndSubmitter()
		}
		sp := req.tr.Begin("join-task")
		odev := s.observedDev(dev, req.tr)
		err := s.runJoin(task, sj, frags[task.left].filtered, frags[task.right].filtered, scol, dim, hasIndex, dev, odev)
		sp.End()
		if err == nil {
			sp.AttrInt("left", int64(task.left)).
				AttrInt("right", int64(task.right)).
				AttrInt("pairs", int64(len(task.pairs)))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// ---- gather: concatenate pairs, re-cluster for distinct ----
	mergeStart := time.Now()
	mg := req.tr.Begin("merge")
	resp := &Response{Degraded: len(missing) > 0, MissingShards: missing}
	var pairs []core.Tuple
	label := ""
	var planOps []string
	for _, frag := range frags {
		if frag == nil {
			continue
		}
		if planOps == nil {
			planOps = append([]string{}, frag.planOps...)
		}
		resp.EstCostSec += frag.cost
	}
	for i, task := range tasks {
		if i == 0 {
			pairs = task.pairs // a one-task join hands its pairs through uncopied
		} else {
			pairs = append(pairs, task.pairs...)
		}
		resp.EstCostSec += task.cost
		if label == "" {
			label = task.label
		}
	}

	planOps = append(planOps, label)
	gather := "gather-pairs"
	if req.Distinct {
		var all []*core.Patch
		for _, frag := range frags {
			if frag == nil {
				continue
			}
			all = append(all, frag.filtered...)
		}
		resp.Value = clusterCount(all, pairs, sj.MinCluster)
		planOps = append(planOps, fmt.Sprintf("distinct(min=%d)", sj.MinCluster))
		gather = fmt.Sprintf("gather-cluster(min=%d)", sj.MinCluster)
	} else {
		resp.Value = len(pairs)
	}
	resp.Plan = s.scatterPlan(nsh, cross, planOps, gather)
	mg.Attr("gather", gather).AttrInt("pairs", int64(len(pairs))).End()
	s.mergeNS.Add(time.Since(mergeStart).Nanoseconds())
	return resp, nil
}

// shardVectorIndex resolves the shard-local maintained vector index at
// the shard's current snapshot (exact mode — join results must be
// byte-identical to the scan-based methods).
func shardVectorIndex(col *core.Collection, field string) (*core.VectorIndex, error) {
	snap, ver, err := col.Snapshot()
	if err != nil {
		return nil, err
	}
	return col.VectorIndexAt(snap, ver, field, core.VecExact)
}

// runJoin joins shard task.left's fragment against shard task.right's
// under the planned method, probing the right shard's local vector
// index on the indexed path. A local task (left == right) self-joins
// with unordered-pair dedup, exactly the single-collection join. The
// two sides of a cross task are disjoint (every patch has one home
// shard), so each qualifying cross-shard pair materializes exactly
// once without dedup — together with the deduped local self-joins that
// reproduces the one-shard DedupUnordered pair set.
func (s *Service) runJoin(task *joinTask, sj *SimJoinSpec, left, right []*core.Patch, scol *core.ShardedCollection, dim int, hasIndex bool, dev *exec.Batcher, odev exec.Device) error {
	j := task.right
	colR := scol.Shard(j)
	sp := s.cost.PlanSimilarityJoinVec(len(left), len(right), dim, hasIndex)
	task.cost = sp.EstCost
	opts := core.SimilarityJoinOpts{
		LeftField: sj.Field, RightField: sj.Field,
		Eps: sj.Eps, DedupUnordered: task.left == j, Device: odev,
	}
	var pairs []core.Tuple
	var err error
	switch sp.Method {
	case core.SimVecIndexed:
		vi, ierr := shardVectorIndex(colR, sj.Field)
		if ierr != nil {
			return ierr
		}
		pairs, err = core.SimilarityJoinVecIndexed(left, colR, vi, opts)
	case core.SimOnTheFly:
		pairs, err = core.SimilarityJoinOnTheFly(left, right, opts)
	case core.SimBatched:
		pairs, err = core.SimilarityJoinBatched(s.shards.Shard(j), left, right, opts)
	default:
		pairs, err = core.SimilarityJoinNested(left, right, opts)
	}
	if err != nil {
		return err
	}
	task.pairs = pairs
	task.label = fmt.Sprintf("simjoin[%s@%s](%s, eps=%g)", sp.Method, dev.Kind(), sj.Field, sj.Eps)
	return nil
}

// sortRows returns a stably sorted copy of ps by the metadata field.
// The serving paths now run bounded top-k (topKRows) instead of a full
// sort; this remains the reference semantics both top-k implementations
// are golden-tested against.
func sortRows(ps []*core.Patch, field string, desc bool) []*core.Patch {
	rows := append([]*core.Patch(nil), ps...)
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i].Meta[field], rows[j].Meta[field]
		if desc {
			return b.Less(a)
		}
		return a.Less(b)
	})
	return rows
}

// rowStream is one shard's sorted, trimmed row list being consumed by
// the k-way merge.
type rowStream struct {
	shard int
	rows  []*core.Patch
	pos   int
}

// rowHeap orders streams by their head row (ties resolve in shard
// order, mirroring a stable sort over the shards' rows concatenated in
// shard order).
type rowHeap struct {
	streams []*rowStream
	field   string
	desc    bool
}

func (h *rowHeap) Len() int { return len(h.streams) }
func (h *rowHeap) Less(i, j int) bool {
	a := h.streams[i].rows[h.streams[i].pos].Meta[h.field]
	b := h.streams[j].rows[h.streams[j].pos].Meta[h.field]
	if h.desc {
		if b.Less(a) {
			return true
		}
		if a.Less(b) {
			return false
		}
	} else {
		if a.Less(b) {
			return true
		}
		if b.Less(a) {
			return false
		}
	}
	return h.streams[i].shard < h.streams[j].shard
}
func (h *rowHeap) Swap(i, j int) { h.streams[i], h.streams[j] = h.streams[j], h.streams[i] }
func (h *rowHeap) Push(x any)    { h.streams = append(h.streams, x.(*rowStream)) }
func (h *rowHeap) Pop() any {
	old := h.streams
	n := len(old)
	x := old[n-1]
	h.streams = old[:n-1]
	return x
}

// mergeSortedRows k-way heap-merges the shards' sorted row fragments
// into the global top-limit rows. Each shard trimmed its fragment to
// the limit already, so the merge touches at most nsh*limit rows no
// matter how large the collection is. Nil fragments (missing shards on
// a degraded query) contribute no stream; the merge checks ctx
// periodically so a query that times out mid-gather stops there.
func mergeSortedRows(ctx context.Context, frags []*shardFragment, field string, desc bool, limit int) ([]*core.Patch, error) {
	h := &rowHeap{field: field, desc: desc}
	for i, frag := range frags {
		if frag != nil && len(frag.rows) > 0 {
			h.streams = append(h.streams, &rowStream{shard: i, rows: frag.rows})
		}
	}
	heap.Init(h)
	out := make([]*core.Patch, 0, limit)
	for h.Len() > 0 && len(out) < limit {
		if len(out)%mergeCtxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		st := h.streams[0]
		out = append(out, st.rows[st.pos])
		st.pos++
		if st.pos < len(st.rows) {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out, nil
}

// mergeCtxCheckRows is the output-row stride between cancellation
// checks in the k-way merge (heap steps are pricier than scan steps,
// so the stride is tighter than ctxCheckRows).
const mergeCtxCheckRows = 32
