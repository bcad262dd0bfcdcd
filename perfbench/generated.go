package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/service"
)

// Requests and oracle of the generated workloads (scan_spill,
// live_ingest). The oracle is the generator itself: counts, top-k and
// brute-force kNN are computed over the rows the seed defines, never by
// the serving code.

type genWorkload struct {
	w    workloadSpec
	g    *generator
	rows []row // base rows, then appended rows in append order
	log  *appendLog
	// Set by freeze once the load has stopped.
	bs    []batch
	idRow map[uint64]int
}

func newGenWorkload(w workloadSpec, seed int64, maxAppended int) *genWorkload {
	gw := &genWorkload{w: w, g: newGenerator(seed)}
	gw.rows = make([]row, w.baseRows+maxAppended)
	for i := range gw.rows {
		gw.rows[i] = gw.g.row(i)
	}
	return gw
}

func str(s string) *string   { return &s }
func f64(v float64) *float64 { return &v }

// Each client cycles its workload's shapes uniformly, as the
// deeplens-serve load generator does.
var (
	scanShapes = []string{"filter_scan", "range_topk", "topk", "knn_exact", "knn"}
	liveShapes = []string{"filter_scan", "topk", "knn"}
)

// next returns the client's n-th request. Every generated request
// bypasses the result cache and carries fresh parameters.
func (gw *genWorkload) next(rng *rand.Rand, n int) (string, service.Request) {
	label := labelName(rng.Intn(genLabels))
	if gw.log != nil {
		shape := liveShapes[n%len(liveShapes)]
		switch shape {
		case "filter_scan":
			return shape, service.Request{Collection: genCol, NoCache: true,
				Filter: &service.FilterSpec{Field: "label", Str: str(label)}}
		case "topk":
			return shape, service.Request{Collection: genCol, NoCache: true,
				Filter:  &service.FilterSpec{Field: "label", Str: str(label)},
				OrderBy: "rank", Desc: true, Limit: 10}
		default:
			knn := &service.KNNSpec{Field: "emb", K: 10}
			if id, ok := gw.recentID(rng); ok {
				knn.SourceID = id
			} else {
				knn.Query = gw.g.queryVec(rng.Uint64())
			}
			return shape, service.Request{Collection: genCol, NoCache: true, KNN: knn}
		}
	}
	shape := scanShapes[n%len(scanShapes)]
	req := service.Request{Collection: genCol, NoCache: true}
	switch shape {
	case "filter_scan":
		req.Filter = &service.FilterSpec{Field: "label", Str: str(label)}
	case "range_topk":
		lo := float64(rng.Intn(3800)) / 4096
		hi := lo + float64(10+rng.Intn(200))/4096
		req.Filter = &service.FilterSpec{Field: "score", Min: f64(lo), Max: f64(hi)}
		req.OrderBy, req.Desc, req.Limit = "rank", true, 10
	case "topk":
		req.Filter = &service.FilterSpec{Field: "label", Str: str(label)}
		req.OrderBy, req.Desc, req.Limit = "score", true, 10
	case "knn_exact":
		req.KNN = &service.KNNSpec{Field: "emb", K: 10, Query: gw.g.queryVec(rng.Uint64()), Exact: true}
	case "knn":
		req.KNN = &service.KNNSpec{Field: "emb", K: 10, Query: gw.g.queryVec(rng.Uint64())}
	}
	return shape, req
}

// recentID returns the id of a row from one of the last four
// acknowledged batches.
func (gw *genWorkload) recentID(rng *rand.Rand) (uint64, bool) {
	bs := gw.log.tail(4)
	for tries := 0; tries < 4 && len(bs) > 0; tries++ {
		if b := bs[rng.Intn(len(bs))]; b.ok {
			return b.ids[rng.Intn(len(b.ids))], true
		}
	}
	return 0, false
}

// freeze snapshots the append log for checking, once no batch is in
// flight.
func (gw *genWorkload) freeze() {
	if gw.log == nil {
		return
	}
	gw.bs = gw.log.batches()
	gw.idRow = map[uint64]int{}
	for b, bt := range gw.bs {
		for k, id := range bt.ids {
			gw.idRow[id] = gw.log.first + b*batchRows + k
		}
	}
}

func (gw *genWorkload) setupProbe() (service.Request, func(*service.Response) error) {
	req := service.Request{Collection: genCol, NoCache: true,
		Filter: &service.FilterSpec{Field: "label", Str: str(labelName(0))}}
	want := 0
	for _, r := range gw.rows[:gw.w.baseRows] {
		if r.Label == labelName(0) {
			want++
		}
	}
	return req, func(resp *service.Response) error {
		if resp.Value != want {
			return fmt.Errorf("setup probe: count %d, want %d", resp.Value, want)
		}
		return nil
	}
}

// view is the set of rows a query may have seen: every row of lo, and
// possibly any row of hi (hi ⊇ lo).
type view struct {
	gw     *genWorkload
	hiN    int    // rows [0, hiN) may be visible
	loOK   []bool // per appended batch: certainly visible
	loFull bool   // lo == hi (no appends in flight)
}

func (gw *genWorkload) viewOf(rec *record) view {
	if gw.log == nil {
		return view{gw: gw, hiN: gw.w.baseRows, loFull: true}
	}
	v := view{gw: gw, hiN: gw.w.baseRows + rec.ackHi*batchRows, loOK: make([]bool, rec.ackHi)}
	for b := 0; b < rec.ackLo && b < len(gw.bs); b++ {
		v.loOK[b] = gw.bs[b].ok
	}
	return v
}

func (v view) inLo(i int) bool {
	if i < v.gw.w.baseRows || v.loFull {
		return i < v.hiN
	}
	b := (i - v.gw.w.baseRows) / batchRows
	return b < len(v.loOK) && v.loOK[b]
}

// check verifies one answered request against the oracle. It returns
// the recall of a planner-default kNN answer (-1 for other shapes).
func (gw *genWorkload) check(rec *record) (float64, error) {
	v := gw.viewOf(rec)
	req, resp := rec.req, rec.resp
	switch {
	case req.KNN != nil:
		return gw.checkKNN(v, req.KNN, resp)
	case req.Filter != nil && req.Filter.Str != nil:
		label := *req.Filter.Str
		pred := func(r *row) bool { return r.Label == label }
		if req.OrderBy == "" {
			return -1, v.checkCount(pred, resp.Value)
		}
		return -1, v.checkTopK(pred, req, resp)
	case req.Filter != nil:
		lo, hi := *req.Filter.Min, *req.Filter.Max
		pred := func(r *row) bool { return r.Score >= lo && r.Score < hi }
		return -1, v.checkTopK(pred, req, resp)
	}
	return -1, fmt.Errorf("unexpected request shape")
}

func (v view) checkCount(pred func(*row) bool, got int) error {
	lo, hi := 0, 0
	for i := 0; i < v.hiN; i++ {
		if pred(&v.gw.rows[i]) {
			hi++
			if v.inLo(i) {
				lo++
			}
		}
	}
	if got < lo || got > hi {
		return fmt.Errorf("count %d outside [%d, %d]", got, lo, hi)
	}
	return nil
}

// orderKey reads the ordering field of a generated row.
func orderKey(r *row, field string) float64 {
	if field == "rank" {
		return float64(r.Rank)
	}
	return r.Score
}

// rowOf resolves a result row to its generated row and checks that the
// returned metadata is that row's.
func (v view) rowOf(m map[string]any) (*row, error) {
	fr, ok := m["_frame"].(float64)
	if !ok || fr < 0 || int(fr) >= v.hiN {
		return nil, fmt.Errorf("result row frame %v not stored", m["_frame"])
	}
	r := &v.gw.rows[int(fr)]
	if m["label"] != r.Label || m["score"] != r.Score || m["rank"] != float64(r.Rank) {
		return nil, fmt.Errorf("result row %d metadata %v differs from stored row", r.Frame, m)
	}
	return r, nil
}

// checkTopK verifies a filter + order_by + limit answer: the count, then
// that the rows are stored matches, correctly ordered, distinct, and
// that no row certainly visible and strictly better than the last
// returned one is missing. Ties may be broken either way.
func (v view) checkTopK(pred func(*row) bool, req service.Request, resp *service.Response) error {
	if err := v.checkCount(pred, resp.Value); err != nil {
		return err
	}
	want := min(req.Limit, resp.Value)
	if len(resp.Rows) != want {
		return fmt.Errorf("%d rows, want %d", len(resp.Rows), want)
	}
	better := func(a, b float64) bool { return (req.Desc && a > b) || (!req.Desc && a < b) }
	seen := map[uint64]bool{}
	var last float64
	for i, m := range resp.Rows {
		r, err := v.rowOf(m)
		if err != nil {
			return err
		}
		if !pred(r) || seen[r.Frame] {
			return fmt.Errorf("row %d is not a distinct match", r.Frame)
		}
		seen[r.Frame] = true
		k := orderKey(r, req.OrderBy)
		if i > 0 && better(k, last) {
			return fmt.Errorf("rows out of order at %d", i)
		}
		last = k
	}
	for i := 0; i < v.hiN; i++ {
		r := &v.gw.rows[i]
		if !v.inLo(i) || !pred(r) || seen[r.Frame] {
			continue
		}
		if len(resp.Rows) < req.Limit || better(orderKey(r, req.OrderBy), last) {
			return fmt.Errorf("row %d missing from top-%d", r.Frame, req.Limit)
		}
	}
	return nil
}

// checkKNN verifies every returned neighbour's distance, then either
// demands the exact answer (Exact) or scores recall@k against the
// brute-force top k of the rows certainly visible.
func (gw *genWorkload) checkKNN(v view, spec *service.KNNSpec, resp *service.Response) (float64, error) {
	q, src := spec.Query, -1
	if spec.SourceID != 0 {
		i, ok := gw.idRow[spec.SourceID]
		if !ok {
			return -1, fmt.Errorf("knn source id %d was never acknowledged", spec.SourceID)
		}
		q, src = gw.rows[i].Emb, i
	}
	if len(resp.Rows) != spec.K {
		return -1, fmt.Errorf("knn returned %d rows, want %d", len(resp.Rows), spec.K)
	}
	var top []float64 // the k smallest distances so far, ascending
	for i := 0; i < v.hiN; i++ {
		if i == src || !v.inLo(i) {
			continue
		}
		d := dist(gw.rows[i].Emb, q)
		if len(top) == spec.K && d >= top[spec.K-1] {
			continue
		}
		j := sort.SearchFloat64s(top, d)
		if len(top) < spec.K {
			top = append(top, 0)
		}
		copy(top[j+1:], top[j:])
		top[j] = d
	}
	kth := top[len(top)-1]
	hits := 0
	prev := -1.0
	for _, m := range resp.Rows {
		r, err := v.rowOf(m)
		if err != nil {
			return -1, err
		}
		if int(r.Frame) == src {
			return -1, fmt.Errorf("knn returned its own source row")
		}
		d := dist(r.Emb, q)
		got, _ := m["_dist"].(float64)
		if math.Abs(got-d) > 1e-5*(1+d) {
			return -1, fmt.Errorf("knn row %d: _dist %g, oracle %g", r.Frame, got, d)
		}
		if d < prev-1e-9 {
			return -1, fmt.Errorf("knn rows out of order")
		}
		prev = d
		if d <= kth*(1+1e-9) {
			hits++
		}
	}
	if spec.Exact {
		if hits != spec.K {
			return -1, fmt.Errorf("exact knn: %d of %d neighbours in the true top-k", hits, spec.K)
		}
		return -1, nil
	}
	return float64(hits) / float64(spec.K), nil
}
