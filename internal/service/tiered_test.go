package service

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
)

// Tiered-column serving tests: a memory budget far below the column
// footprint must be invisible in every response byte — the spill tier
// is purely physical. The fixture is sized so every shard seals at
// least one block (rows/shard > core.ColumnBlockSize), so segments
// genuinely spill and reload under the budget.

// TestTieredBudgetGoldenEquivalence runs the full query matrix against
// a budgeted and an unbudgeted service over identical data, comparing
// values, rows, plan strings, fingerprints and cost estimates byte for
// byte: one-shard (New) services against the golden file, 3-way sharded
// services against each other.
func TestTieredBudgetGoldenEquivalence(t *testing.T) {
	const rows = 3*1024 + 300
	const budget = 32 << 10
	base := Config{Workers: 2}
	tiered := Config{Workers: 2, ColumnMemBudget: budget}
	ctx := context.Background()

	checkStats := func(name string, plain, budgeted *Service) {
		t.Helper()
		st := budgeted.Stats()
		if st.SegmentSpills == 0 {
			t.Fatalf("%s: no segments spilled under a %d-byte budget", name, budget)
		}
		if st.SegmentResidentBytes > budget {
			t.Fatalf("%s: resident %d bytes over the %d budget", name, st.SegmentResidentBytes, budget)
		}
		if st.SegmentLoadFaults != 0 {
			t.Fatalf("%s: healthy store reported %d load faults", name, st.SegmentLoadFaults)
		}
		if st.Failed != 0 {
			t.Fatalf("%s: %d queries failed under budget", name, st.Failed)
		}
		if ust := plain.Stats(); ust.SegmentSpills != 0 || ust.ColumnMemBudget != 0 {
			t.Fatalf("%s: unbudgeted service engaged the spill tier: %+v", name, ust)
		}
	}

	_, plain := synthUnsharded(t, rows, base)
	_, budgeted := synthUnsharded(t, rows, tiered)
	checkGolden(t, "golden_queries_tiered.json", plain, queryMatrix())
	checkGolden(t, "golden_queries_tiered.json", budgeted, queryMatrix())
	checkStats("N=1", plain, budgeted)

	_, plainSh := synthSharded(t, 3, rows, base)
	_, budgetedSh := synthSharded(t, 3, rows, tiered)
	for qi, req := range queryMatrix() {
		pr, err := plainSh.Query(ctx, req)
		if err != nil {
			t.Fatalf("N=3 q%d unbudgeted: %v", qi, err)
		}
		br, err := budgetedSh.Query(ctx, req)
		if err != nil {
			t.Fatalf("N=3 q%d budgeted: %v", qi, err)
		}
		if pk, bk := goldenKey(t, pr), goldenKey(t, br); pk != bk {
			t.Fatalf("N=3 q%d diverges under memory budget:\n  unbudgeted: %s\n  budgeted:   %s", qi, pk, bk)
		}
	}
	checkStats("N=3", plainSh, budgetedSh)
}

// TestTopKSegmentAttribution: a traced top-k over a spilled column must
// report on every fragment span the segments its filter and top-k
// faulted in (seg_loads, summing to the cache's load counter), found
// resident (seg_hits) and skipped by the zone-ordered int top-k
// (topk_segs_skipped); /metrics exports the cache hit ratio.
func TestTopKSegmentAttribution(t *testing.T) {
	const rows = 6 * 1024
	sdb, err := core.OpenSharded(filepath.Join(t.TempDir(), "sharded"), 2, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	sc, err := sdb.CreateCollection(shardTestCol, synthSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		p := synthPatch(i)
		p.Meta["seq"] = core.IntV(int64(i)) // grows with row index on every shard
		if err := sc.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewSharded(sdb, Config{Workers: 1, ColumnMemBudget: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx := context.Background()
	car := "car"
	queries := []Request{
		{Collection: shardTestCol, OrderBy: "seq", Desc: true, Limit: 5},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: &car}, OrderBy: "seq", Desc: true, Limit: 5},
	}
	for _, req := range queries { // project the columns
		if _, err := s.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	attr := func(sp obs.Span, name string) int64 {
		t.Helper()
		v, err := strconv.ParseInt(sp.Attrs[name], 10, 64)
		if err != nil {
			t.Fatalf("fragment span attr %s = %q: %v", name, sp.Attrs[name], err)
		}
		return v
	}
	for qi, req := range queries {
		req.NoCache, req.Trace = true, true
		s.segCache.EvictAll()
		before := s.segCache.Stats().Loads
		resp, err := s.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		loaded := s.segCache.Stats().Loads - before
		var loads, skipped int64
		frags := spansByName(resp.TraceData)["fragment"]
		if len(frags) != 2 {
			t.Fatalf("q%d: %d fragment spans, want 2", qi, len(frags))
		}
		for _, sp := range frags {
			loads += attr(sp, "seg_loads")
			skipped += attr(sp, "topk_segs_skipped")
			if attr(sp, "seg_hits") != 0 {
				t.Fatalf("q%d: fragment reports hits after a full eviction: %v", qi, sp.Attrs)
			}
		}
		if loads != loaded || (req.Filter != nil && loads == 0) {
			t.Fatalf("q%d: fragments report %d segment loads, the cache counted %d", qi, loads, loaded)
		}
		if skipped == 0 {
			t.Fatalf("q%d: desc top-k on a growing column skipped no segments", qi)
		}
		// The same query again finds loaded segments resident (the
		// unfiltered one reads only the unsealed tail, which never spills).
		resp, err = s.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		var hits int64
		for _, sp := range spansByName(resp.TraceData)["fragment"] {
			hits += attr(sp, "seg_hits")
		}
		if loads > 0 && hits == 0 {
			t.Fatalf("q%d: repeat query reported no segment hits", qi)
		}
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	exp, err := obs.CheckExposition(rec.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v", err)
	}
	want := s.segCache.Stats().HitRatio()
	if v, ok := exp.Value("deeplens_segment_cache_hit_ratio", nil); !ok || v != want || v <= 0 || v >= 1 {
		t.Fatalf("deeplens_segment_cache_hit_ratio = %v (found=%v), want %v in (0, 1)", v, ok, want)
	}
}
