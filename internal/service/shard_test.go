package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
)

// Scatter-gather tests: the executor against synthetic collections built
// directly through the storage layer (no ETL), so the matrix runs in
// milliseconds. One-shard answers are pinned by golden files under
// testdata; wider fan-outs are checked against the one-shard answer.

const shardTestCol = "synth.dets"

func synthSchema() core.Schema {
	return core.Schema{
		Data: core.Pixels(0, 0),
		Fields: []core.Field{
			{Name: "label", Kind: core.KindStr},
			{Name: "score", Kind: core.KindFloat},
			{Name: "rank", Kind: core.KindInt},
			{Name: "emb", Kind: core.KindVec, VecDim: 8},
		},
	}
}

// synthPatch generates row i deterministically: clustered embeddings
// (i%7 picks the cluster center; members sit within 0.1 of it) so
// similarity joins produce pairs, and low-cardinality score/rank fields
// so order-by queries tie heavily across shards.
func synthPatch(i int) *core.Patch {
	emb := make([]float32, 8)
	cluster := i % 7
	for d := range emb {
		emb[d] = float32(cluster*10) + float32((i/7)%3)*0.03
	}
	return &core.Patch{
		Ref: core.Ref{Source: "synth", Frame: uint64(i)},
		Meta: core.Metadata{
			"label": core.StrV([]string{"car", "pedestrian", "bus"}[i%3]),
			"score": core.FloatV(float64(i % 4)),
			"rank":  core.IntV(int64(i % 6)),
			"emb":   core.VecV(emb),
		},
	}
}

func fillSynth(t *testing.T, appendFn func(*core.Patch) error, rows int) {
	t.Helper()
	for i := 0; i < rows; i++ {
		if err := appendFn(synthPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// synthUnsharded builds a plain DB + New service over `rows` synthetic
// rows.
func synthUnsharded(t *testing.T, rows int, cfg Config) (*core.DB, *Service) {
	t.Helper()
	db, err := core.Open(filepath.Join(t.TempDir(), "plain.db"), exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	col, err := db.CreateCollection(shardTestCol, synthSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillSynth(t, col.Append, rows)
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return db, s
}

// synthSharded builds an n-shard Sharded + service over the same rows.
func synthSharded(t *testing.T, n, rows int, cfg Config) (*core.Sharded, *Service) {
	t.Helper()
	sdb, err := core.OpenSharded(filepath.Join(t.TempDir(), "sharded"), n, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	sc, err := sdb.CreateCollection(shardTestCol, synthSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillSynth(t, sc.Append, rows)
	s, err := NewSharded(sdb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return sdb, s
}

// queryMatrix is the full shape matrix the golden comparison runs:
// counts, indexed and scan filters, ordered and unordered projections
// with ties, empty results, similarity joins (scan, indexed, filtered)
// and distinct clustering.
func queryMatrix() []Request {
	str := func(s string) *string { return &s }
	return []Request{
		{Collection: shardTestCol},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("car")}},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("pedestrian"), UseIndex: true}},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("tricycle")}}, // empty result
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "score", Float: fp(2)}},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "score", Min: fp(1), Max: fp(3)}},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "rank", Min: fp(2)}, OrderBy: "score", Limit: 6},
		{Collection: shardTestCol, Limit: 7},
		{Collection: shardTestCol, OrderBy: "score", Limit: 5},
		{Collection: shardTestCol, OrderBy: "rank", Desc: true, Limit: 9},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("bus")}, OrderBy: "rank", Limit: 4},
		{Collection: shardTestCol, OrderBy: "score"}, // order without explicit limit (maxRows cap)
		{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2}},
		{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2, UseIndex: true}},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("car")},
			SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2}},
		{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2, MinCluster: 2}, Distinct: true},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("pedestrian"), UseIndex: true},
			SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.25, MinCluster: 1}, Distinct: true},
		// B-tree range probes (float, int, fractional bounds over ints).
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "score", Min: fp(1), Max: fp(3), UseIndex: true}},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "rank", Min: fp(1.5), Max: fp(4.5), UseIndex: true}},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "rank", Min: fp(2), UseIndex: true}},
		// kNN: planned, pinned-exact, and forced-index forms.
		{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 5, Query: knnQ(3)}},
		{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 8, Query: knnQ(1), Exact: true}},
		{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 4, Query: knnQ(5), UseIndex: true}},
	}
}

func fp(f float64) *float64 { return &f }

// goldenKey reduces a response to the bytes a golden file pins: answer,
// rows, plan, fingerprint and cost estimate (serving metadata like
// durations naturally differs).
func goldenKey(t *testing.T, r *Response) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"value": r.Value,
		"rows":  r.Rows,
		"plan":  r.Plan,
		"fp":    r.Fingerprint,
		"cost":  r.EstCostSec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkGolden runs reqs against s and compares each response's
// goldenKey with the matching entry of testdata/<file>. The files were
// captured from the former unsharded executor (a separate code path
// beside scatter-gather) and from a one-shard NewSharded service, which
// agreed byte for byte; they change only with a deliberate change of
// output.
func checkGolden(t *testing.T, file string, s *Service, reqs []Request) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var want []json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if len(want) != len(reqs) {
		t.Fatalf("%s holds %d answers for %d requests", file, len(want), len(reqs))
	}
	for qi, req := range reqs {
		r, err := s.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("%s q%d: %v", file, qi, err)
		}
		var w bytes.Buffer
		if err := json.Compact(&w, want[qi]); err != nil {
			t.Fatal(err)
		}
		if got := goldenKey(t, r); got != w.String() {
			t.Errorf("%s q%d diverges:\n  got:    %s\n  golden: %s", file, qi, got, w.String())
		}
	}
}

// TestShardedN1GoldenEquivalence: New(db) and a one-shard NewSharded
// service answer the full query matrix byte-identically to the golden
// file — values, rows, plan strings, fingerprints and cost estimates.
func TestShardedN1GoldenEquivalence(t *testing.T) {
	const rows = 240
	cfg := Config{Workers: 2}
	_, plain := synthUnsharded(t, rows, cfg)
	checkGolden(t, "golden_queries.json", plain, queryMatrix())
	_, sharded := synthSharded(t, 1, rows, cfg)
	checkGolden(t, "golden_queries.json", sharded, queryMatrix())
}

// TestScatterGatherValueEquivalence: counts, pair counts and cluster
// counts are shard-count invariant (row order may differ, answers may
// not) — checked at N=2..5 against the unsharded reference.
func TestScatterGatherValueEquivalence(t *testing.T) {
	const rows = 240
	cfg := Config{Workers: 2}
	_, plain := synthUnsharded(t, rows, cfg)
	ctx := context.Background()
	want := make([]int, 0, len(queryMatrix()))
	for qi, req := range queryMatrix() {
		r, err := plain.Query(ctx, req)
		if err != nil {
			t.Fatalf("query %d unsharded: %v", qi, err)
		}
		want = append(want, r.Value)
	}
	for _, n := range []int{2, 3, 5} {
		_, sharded := synthSharded(t, n, rows, cfg)
		for qi, req := range queryMatrix() {
			r, err := sharded.Query(ctx, req)
			if err != nil {
				t.Fatalf("query %d sharded N=%d: %v", qi, n, err)
			}
			if r.Value != want[qi] {
				t.Errorf("query %d: sharded N=%d value %d, unsharded %d (plan %s)",
					qi, n, r.Value, want[qi], r.Plan)
			}
		}
	}
}

// TestScatterTopKTiesAcrossShards: the k-way heap merge must produce
// globally sorted rows under heavy cross-shard ties, deterministically.
func TestScatterTopKTiesAcrossShards(t *testing.T) {
	const rows = 200
	_, svc := synthSharded(t, 4, rows, Config{Workers: 2})
	ctx := context.Background()
	req := Request{Collection: shardTestCol, OrderBy: "score", Limit: 20, NoCache: true}
	first, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) != 20 {
		t.Fatalf("top-k returned %d rows, want 20", len(first.Rows))
	}
	// Globally sorted: the merged scores are the 20 smallest, ascending.
	var all []float64
	for i := 0; i < rows; i++ {
		all = append(all, float64(i%4))
	}
	sort.Float64s(all)
	for i, row := range first.Rows {
		got := row["score"].(float64)
		if got != all[i] {
			t.Fatalf("row %d score %g, want %g (merge not globally sorted)", i, got, all[i])
		}
	}
	// Deterministic under ties: reruns yield the identical row sequence.
	for run := 0; run < 3; run++ {
		again, err := svc.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Rows, again.Rows) {
			t.Fatalf("tie-broken merge order not deterministic (run %d)", run)
		}
	}
}

// TestScatterEmptyShard: shard counts far above the row count leave
// shards empty; every merge (count, rows, pairs, clusters) must cope.
func TestScatterEmptyShard(t *testing.T) {
	_, svc := synthSharded(t, 6, 5, Config{Workers: 2})
	ctx := context.Background()
	str := func(s string) *string { return &s }
	for qi, req := range []Request{
		{Collection: shardTestCol},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("car")}},
		{Collection: shardTestCol, OrderBy: "score", Limit: 10},
		{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2}},
		{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2, MinCluster: 1}, Distinct: true},
	} {
		if _, err := svc.Query(ctx, req); err != nil {
			t.Fatalf("query %d over sparse shards: %v", qi, err)
		}
	}
	// Fully empty collection: zero rows everywhere.
	sdb2, svc2 := synthSharded(t, 4, 0, Config{Workers: 1})
	if got := mustQuery(t, svc2, Request{Collection: shardTestCol}).Value; got != 0 {
		t.Fatalf("empty sharded collection count = %d", got)
	}
	if got := mustQuery(t, svc2, Request{Collection: shardTestCol,
		SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.5}}).Value; got != 0 {
		t.Fatalf("empty sharded simjoin pairs = %d", got)
	}
	_ = sdb2
}

func mustQuery(t *testing.T, s *Service, req Request) *Response {
	t.Helper()
	r, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestScatterPlanDecoration: multi-shard plans surface the fan-out and
// gather stages; single-shard plans stay bare (the N=1 contract).
func TestScatterPlanDecoration(t *testing.T) {
	_, svc := synthSharded(t, 4, 120, Config{Workers: 2})
	r := mustQuery(t, svc, Request{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2}})
	if want := "scatter[4+"; len(r.Plan) < len(want) || r.Plan[:len(want)] != want {
		t.Fatalf("sharded simjoin plan %q does not surface cross-shard fan-out", r.Plan)
	}
	st := svc.Stats()
	if st.Shards != 4 || len(st.ShardInfo) != 4 {
		t.Fatalf("stats shards = %d / %d infos", st.Shards, len(st.ShardInfo))
	}
	rowsTotal := 0
	for _, si := range st.ShardInfo {
		rowsTotal += si.Rows
	}
	if rowsTotal != 120 {
		t.Fatalf("per-shard row counts sum to %d, want 120", rowsTotal)
	}
	if st.ScatterQueries < 1 || st.ScatterTasks < 4 {
		t.Fatalf("scatter counters not recorded: %+v", st)
	}
}

// TestScatterAppendInvalidatesComposite: an append that lands on a
// single shard must invalidate version-keyed cached results exactly
// like an unsharded append.
func TestScatterAppendInvalidatesComposite(t *testing.T) {
	sdb, svc := synthSharded(t, 3, 90, Config{Workers: 1})
	ctx := context.Background()
	req := Request{Collection: shardTestCol}
	r1, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit || r2.Value != 90 {
		t.Fatalf("second query not served from cache: hit=%v value=%d", r2.CacheHit, r2.Value)
	}
	sc, err := sdb.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Append(synthPatch(90)); err != nil {
		t.Fatal(err)
	}
	r3, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit {
		t.Fatal("stale cache hit after single-shard append (composite version did not move)")
	}
	if r3.Value != 91 {
		t.Fatalf("post-append count = %d, want 91", r3.Value)
	}
	if r3.Fingerprint == r1.Fingerprint {
		t.Fatal("fingerprint unchanged after append")
	}
}

// TestScatterConcurrentAppendsHammer: scattered queries race appends
// across every shard; run under -race this doubles as the memory-model
// check for per-shard snapshots feeding parallel fragments.
func TestScatterConcurrentAppendsHammer(t *testing.T) {
	sdb, svc := synthSharded(t, 3, 60, Config{Workers: 4})
	sc, err := sdb.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const appends = 120
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if err := sc.Append(synthPatch(60 + i)); err != nil {
				panic(fmt.Sprintf("append during scatter: %v", err))
			}
		}
	}()
	str := func(s string) *string { return &s }
	reqs := []Request{
		{Collection: shardTestCol, NoCache: true},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("car")}, NoCache: true},
		{Collection: shardTestCol, OrderBy: "score", Limit: 8, NoCache: true},
		{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2}, NoCache: true},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "rank", Int: ip(2)}, OrderBy: "rank", Limit: 3, NoCache: true},
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req := reqs[(c+i)%len(reqs)]
				if _, err := svc.Query(ctx, req); err != nil {
					panic(fmt.Sprintf("scattered query during appends: %v", err))
				}
			}
		}(c)
	}
	wg.Wait()
	// Quiesced: the final count reflects every append.
	r := mustQuery(t, svc, Request{Collection: shardTestCol, NoCache: true})
	if r.Value != 60+appends {
		t.Fatalf("post-hammer count = %d, want %d", r.Value, 60+appends)
	}
}

func ip(i int64) *int64 { return &i }

// TestShardedServiceRejectsNil guards the constructor contract.
func TestShardedServiceRejectsNil(t *testing.T) {
	if _, err := NewSharded(nil, Config{}); err == nil {
		t.Fatal("NewSharded(nil) succeeded")
	}
}

// cancelAfter is a context whose Err turns context.Canceled after n
// polls. A scan loop that checks it every stride stops partway through;
// one that polls only before starting would run to the end.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func newCancelAfter(n int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.n.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestScanLoopsHonorCancellation: every service scan loop — the eq and
// range row scans, the hash-index and B-tree fetches, and the k-way
// merge — polls its context at its stride and returns context.Canceled
// when it is cancelled mid-scan, instead of finishing the scan. Each
// context allows one poll, so the loop must stop at its second stride.
func TestScanLoopsHonorCancellation(t *testing.T) {
	// 3 labels cycle, so label=car matches just over ctxCheckRows rows:
	// every loop below has a second stride to stop at.
	const rows = 3*ctxCheckRows + 3
	_, svc := synthUnsharded(t, rows, Config{Workers: 1})
	scol, err := svc.shards.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := scol.Shard(0).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	str := func(s string) *string { return &s }
	car := &FilterSpec{Field: "label", Str: str("car")}
	ranked := &FilterSpec{Field: "rank", Min: fp(0)}
	fragment := func(f *FilterSpec) func(context.Context) (int, error) {
		return func(ctx context.Context) (int, error) {
			fval, _ := f.value()
			if f.isRange() {
				fval = core.Value{}
			}
			frag, err := svc.filterFragment(ctx, &Request{Collection: shardTestCol, Filter: f}, fval, scol, 0, 0, snap)
			if err != nil {
				return 0, err
			}
			return len(frag.filtered), nil
		}
	}
	rowScan := func(f *FilterSpec) func(context.Context) (int, error) {
		return func(ctx context.Context) (int, error) {
			fval, _ := f.value()
			got, err := rowFilter(ctx, snap, f, fval)
			return len(got), err
		}
	}
	sorted := sortRows(snap, "rank", false)
	frags := []*shardFragment{{rows: sorted[:rows/2]}, {rows: sorted[rows/2:]}}
	for _, tc := range []struct {
		name string
		want int // matches with a live context
		run  func(context.Context) (int, error)
	}{
		{"eq row scan", rows / 3, rowScan(car)},
		{"range row scan", rows, rowScan(ranked)},
		{"hash-index fetch", rows / 3, fragment(&FilterSpec{Field: "label", Str: str("car"), UseIndex: true})},
		{"btree fetch", rows, fragment(&FilterSpec{Field: "rank", Min: fp(0), UseIndex: true})},
		{"k-way merge", maxRows, func(ctx context.Context) (int, error) {
			got, err := mergeSortedRows(ctx, frags, "rank", false, maxRows)
			return len(got), err
		}},
	} {
		if n, err := tc.run(context.Background()); err != nil || n != tc.want {
			t.Fatalf("%s: live context gave %d rows, %v; want %d", tc.name, n, err, tc.want)
		}
		if _, err := tc.run(newCancelAfter(1)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled mid-scan, got err %v; want context.Canceled", tc.name, err)
		}
	}
}

// TestOneShardJoinRunsOnWorkerDevice: a one-shard service submits a
// join's kernels to the executing worker's own device, never to the
// shard-pinned device 0, so per-device load and fusion follow the worker
// pool as they do for every other kernel the worker submits.
func TestOneShardJoinRunsOnWorkerDevice(t *testing.T) {
	_, s := synthUnsharded(t, 240, Config{Workers: 2, Devices: 2})
	kernels := func(d int) int64 {
		st := s.batchers[d].BatcherStats()
		return st.Submitted + st.PassThrough
	}
	w := &worker{id: 1, dev: s.batchers[1]}
	req := &Request{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2}, NoCache: true}
	resp, err := s.execute(context.Background(), w, req)
	if err != nil {
		t.Fatal(err)
	}
	if kernels(1) == 0 {
		t.Fatalf("worker 1's device received no join kernels (plan %s)", resp.Plan)
	}
	if n := kernels(0); n != 0 {
		t.Fatalf("device 0 received %d kernels of worker 1's join", n)
	}
}
