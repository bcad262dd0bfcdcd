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

// Scatter-gather execution over a sharded backend. The plan is made
// once; its fragment runs on every shard in parallel, each shard pinned
// to its own batcher-fronted device (so concurrent fragments' kernels
// fuse exactly like concurrent requests'); the partial results merge at
// the service layer:
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
// With one shard the fragment IS the whole plan and the merge is the
// identity, so results (values, rows, plan strings, cost estimates) are
// byte-identical to the unsharded execution path — the equivalence the
// golden tests in shard_test.go pin down.

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

// shardDev returns the batcher-fronted device scatter task t is pinned
// to. Shard-local task i maps to device i%Devices, so a shard's kernels
// always land on the same scheduler; cross tasks continue round-robin.
func (s *Service) shardDev(t int) *exec.Batcher {
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
func (s *Service) executeScatter(ctx context.Context, req *Request) (*Response, error) {
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

	// Effective row limit (mirrors the unsharded path: requests cap at
	// maxRows, zero means "rows only if order/limit was asked for").
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
	if err := ctx.Err(); err != nil {
		return nil, err // timeout/cancel dominates any per-shard outcome
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
	if len(missing) > 0 && (!req.AllowPartial || len(missing) == nsh) {
		return nil, shardErr
	}
	if len(missing) > 0 {
		s.tel.degradedQueries.Inc()
	}

	if req.SimJoin != nil {
		return s.simJoinScatter(ctx, req, scol, frags, missing)
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

// scatterPlan renders the physical plan string. One shard reproduces
// the unsharded plan byte for byte (the N=1 contract); more shards wrap
// the fragment pipeline in a scatter[N(+C)] -> gather decoration, C
// being the cross-shard join task count.
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
// shard i's snapshot, using the replica-local hash index when the plan
// asks for it. It checks ctx between blocks of row work so a canceled
// caller (or a hedge loser) stops promptly instead of burning the
// full scan.
func (s *Service) filterFragment(ctx context.Context, req *Request, fval core.Value, scol *core.ShardedCollection, i, r int, snap []*core.Patch) (*shardFragment, error) {
	frag := &shardFragment{filtered: snap}
	f := req.Filter
	if f == nil {
		return frag, nil
	}
	// Fragments feed the same observed-latency state as the unsharded
	// path: each replica's filter stage reports its access path and
	// duration to the shared cost model.
	fltStart := time.Now()
	var fltMethod core.FilterMethod
	fltUnits := 0
	defer func() {
		if fltMethod != 0 {
			s.cost.ObserveFilter(fltMethod, fltUnits, time.Since(fltStart))
		}
	}()
	col := scol.Replica(i, r)
	if f.isRange() {
		lo, hi := f.bounds()
		if f.UseIndex {
			idx, err := s.ensureIndexOn(s.shards.ReplicaDB(i, r), replicaScope(i, r), col, f.Field, core.IdxBTree)
			if err != nil {
				return nil, err
			}
			ids, err := btreeRangeIDs(idx, lo, hi)
			if err != nil {
				return nil, err
			}
			filtered := make([]*core.Patch, 0, len(ids))
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
				filtered = append(filtered, p)
			}
			frag.filtered = filtered
			frag.planOps = append(frag.planOps, fmt.Sprintf("btree-index(%s)", f.Field))
			frag.cost += s.cost.FilterCost(core.FilterBTreeIndex, len(snap), len(ids))
			fltMethod, fltUnits = core.FilterBTreeIndex, len(ids)
		} else if cf, ok := columnFilterRange(col, f.Field, lo, hi, len(snap)); ok {
			frag.filtered = cf.rows
			frag.csel = cf
			frag.planOps = append(frag.planOps, fmt.Sprintf("column-scan(%s)", f.Field))
			frag.cost += s.cost.FilterCost(core.FilterColumnScan, len(snap), 0)
			fltMethod, fltUnits = core.FilterColumnScan, len(snap)
		} else {
			frag.filtered = rowFilterRange(snap, f.Field, lo, hi)
			frag.planOps = append(frag.planOps, fmt.Sprintf("scan-filter(%s)", f.Field))
			frag.cost += float64(len(snap)) * scanCmpCostSec
			fltMethod, fltUnits = core.FilterScan, len(snap)
		}
		return frag, nil
	}
	if f.UseIndex {
		idx, err := s.ensureIndexOn(s.shards.ReplicaDB(i, r), replicaScope(i, r), col, f.Field, core.IdxHash)
		if err != nil {
			return nil, err
		}
		ids, err := idx.LookupEq(fval)
		if err != nil {
			return nil, err
		}
		filtered := make([]*core.Patch, 0, len(ids))
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
			filtered = append(filtered, p)
		}
		frag.filtered = filtered
		frag.planOps = append(frag.planOps, fmt.Sprintf("hash-index(%s)", f.Field))
		frag.cost += float64(len(ids)) * s.cost.CFetch
		fltMethod, fltUnits = core.FilterHashIndex, len(ids)
	} else if cf, ok := columnFilterEq(col, f.Field, fval, len(snap)); ok {
		// Columnar fragment: each replica prunes and scans its own blocks
		// (same kernels, labels and cost accounting as the unsharded
		// path, so N=1 plans stay byte-identical).
		frag.filtered = cf.rows
		frag.csel = cf
		frag.planOps = append(frag.planOps, fmt.Sprintf("column-scan(%s)", f.Field))
		frag.cost += s.cost.FilterCost(core.FilterColumnScan, len(snap), 0)
		fltMethod, fltUnits = core.FilterColumnScan, len(snap)
	} else {
		filtered := make([]*core.Patch, 0, len(snap)/4)
		for k, p := range snap {
			if k%ctxCheckRows == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if mv, ok := p.Meta[f.Field]; ok && mv.Equal(fval) {
				filtered = append(filtered, p)
			}
		}
		frag.filtered = filtered
		frag.planOps = append(frag.planOps, fmt.Sprintf("scan-filter(%s)", f.Field))
		frag.cost += float64(len(snap)) * scanCmpCostSec
		fltMethod, fltUnits = core.FilterScan, len(snap)
	}
	return frag, nil
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
func (s *Service) simJoinScatter(ctx context.Context, req *Request, scol *core.ShardedCollection, frags []*shardFragment, missing []int) (*Response, error) {
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
		dev := s.shardDev(t)
		// Join tasks submit kernels: register with the device's batcher so
		// its adaptive flush knows a submitter is mid-query (default flush
		// policy only — an explicit BatchWindow is honored strictly).
		if s.adaptive {
			dev.BeginSubmitter()
			defer dev.EndSubmitter()
		}
		sp := req.tr.Begin("join-task")
		odev := s.observedDev(dev, req.tr)
		var err error
		if task.left == task.right {
			err = s.runLocalJoin(task, sj, frags[task.left].filtered, scol, dim, hasIndex, dev, odev)
		} else {
			err = s.runCrossJoin(task, sj, frags[task.left].filtered, frags[task.right].filtered, scol, dim, hasIndex, dev, odev)
		}
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
	for _, task := range tasks {
		pairs = append(pairs, task.pairs...)
		resp.EstCostSec += task.cost
		if label == "" && task.label != "" {
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

// runLocalJoin is shard i's self-join over its own fragment — exactly
// the unsharded similarity join, shard-local index and all.
func (s *Service) runLocalJoin(task *joinTask, sj *SimJoinSpec, filtered []*core.Patch, scol *core.ShardedCollection, dim int, hasIndex bool, dev *exec.Batcher, odev exec.Device) error {
	i := task.left
	col := scol.Shard(i)
	db := s.shards.Shard(i)
	n := len(filtered)
	sp := s.cost.PlanSimilarityJoinVec(n, n, dim, hasIndex)
	task.cost = sp.EstCost
	opts := core.SimilarityJoinOpts{
		LeftField: sj.Field, RightField: sj.Field,
		Eps: sj.Eps, DedupUnordered: true, Device: odev,
	}
	var pairs []core.Tuple
	var err error
	switch sp.Method {
	case core.SimVecIndexed:
		vi, ierr := shardVectorIndex(col, sj.Field)
		if ierr != nil {
			return ierr
		}
		pairs, err = core.SimilarityJoinVecIndexed(filtered, col, vi, opts)
	case core.SimOnTheFly:
		pairs, err = core.SimilarityJoinOnTheFly(filtered, filtered, opts)
	case core.SimBatched:
		pairs, err = core.SimilarityJoinBatched(db, filtered, filtered, opts)
	default:
		pairs, err = core.SimilarityJoinNested(filtered, filtered, opts)
	}
	if err != nil {
		return err
	}
	task.pairs = pairs
	task.label = fmt.Sprintf("simjoin[%s@%s](%s, eps=%g)", sp.Method, dev.Kind(), sj.Field, sj.Eps)
	return nil
}

// runCrossJoin joins shard i's fragment against shard j's. The two row
// sets are disjoint (every patch has one home shard), so no dedup is
// needed: each qualifying cross-shard pair materializes exactly once,
// which together with the deduped local self-joins reproduces the
// unsharded DedupUnordered pair set.
func (s *Service) runCrossJoin(task *joinTask, sj *SimJoinSpec, left, right []*core.Patch, scol *core.ShardedCollection, dim int, hasIndex bool, dev *exec.Batcher, odev exec.Device) error {
	j := task.right
	dbR, colR := s.shards.Shard(j), scol.Shard(j)
	sp := s.cost.PlanSimilarityJoinVec(len(left), len(right), dim, hasIndex)
	task.cost = sp.EstCost
	opts := core.SimilarityJoinOpts{
		LeftField: sj.Field, RightField: sj.Field,
		Eps: sj.Eps, Device: odev,
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
		pairs, err = core.SimilarityJoinBatched(dbR, left, right, opts)
	default:
		pairs, err = core.SimilarityJoinNested(left, right, opts)
	}
	if err != nil {
		return err
	}
	task.pairs = pairs
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
// order, mirroring the stable concatenate-then-sort the unsharded path
// would produce).
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
