package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"

	"repro/internal/obs"
	"repro/internal/service"
)

type metricDef struct{ name, unit string }

// End-to-end metrics, as a user of the service sees them. Latencies are
// client-side HTTP round trips of successful requests.
var e2eMetrics = []metricDef{
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query_qps", "1/s"},
	{"query_ok_frac", "frac"},
	{"knn_recall", "frac"},
	{"append_p50_ms", "ms"},
	{"append_ok_frac", "frac"},
	{"acked_lost_frac", "frac"},
	{"heap_mb", "MiB"},
	{"store_bytes_per_row", "B"},
	{"setup_s", "s"},
}

var shapeNames = []string{"filter_idx", "filter_scan", "top1", "q4_distinct", "simjoin_idx", "knn", "knn_exact", "range_topk", "topk", "infer_detect", "infer_ocr"}

// Per-layer metrics of the traced run. A shape or layer a workload does
// not exercise reads 0.
var layerMetrics = func() []metricDef {
	ms := []metricDef{
		{"http.overhead_ms.p50", "ms"},
		{"http.resp_kb.mean", "KiB"},
		{"service.queue_wait_ms.p50", "ms"},
		{"service.queue_wait_ms.p99", "ms"},
		{"service.shed", "count"},
		{"service.rejected", "count"},
		{"service.plan_ms.p50", "ms"},
		{"service.execute_ms.p50", "ms"},
		{"service.direct_query_ms.p50", "ms"},
		{"service.result_cache.hit_ratio", "frac"},
		{"service.udf_cache.hit_ratio", "frac"},
		{"service.coalesced", "count"},
	}
	for _, s := range shapeNames {
		ms = append(ms, metricDef{"service.shape." + s + ".p50_ms", "ms"})
	}
	return append(ms, []metricDef{
		{"scatter.fragment_ms.p50", "ms"},
		{"scatter.fragment_max_ms.p50", "ms"},
		{"scatter.merge_ms.p50", "ms"},
		{"scatter.tasks_per_query", "count"},
		{"scatter.hedged_frac", "frac"},
		{"scatter.fragment_retries", "count"},
		{"service.append_ms.p50", "ms"},
		{"service.append_ms.p99", "ms"},
		{"vision.detect_ms_per_frame", "ms"},
		{"vision.ocr_ms_per_frame", "ms"},
		{"exec.kernels", "count"},
		{"exec.launches", "count"},
		{"core.filter_us", "us"},
		{"core.topk_us", "us"},
		{"core.rows_scanned_per_result", "count"},
		{"core.segment.loads_per_query", "count"},
		{"core.segment.evictions_per_query", "count"},
		{"core.segment.resident_mb", "MiB"},
		{"core.column_extends", "count"},
		{"core.extend_reuse_ratio", "frac"},
		{"core.knn_exact_us", "us"},
		{"core.knn_approx_us", "us"},
		{"core.knn_brute_us", "us"},
		{"core.index_extends", "count"},
		{"core.index_rebuilds", "count"},
		{"core.replica_append_errors", "count"},
		{"core.out_of_sync_replicas", "count"},
		{"kv.pager_reads_per_query", "count"},
		{"kv.store_mb", "MiB"},
		{"go.gc_cycles", "count"},
		{"go.gc_pause_ms.total", "ms"},
		{"go.alloc_mb_per_s", "MiB/s"},
		{"gen.lateness_ms.p99", "ms"},
		{"trace.overhead_frac", "frac"},
		{"trace.unattributed_frac", "frac"},
	}...)
}()

// result is one benchmark invocation's outcome.
type result struct {
	w      workloadSpec
	seed   int64
	traced bool
	setups obs.Summary  // setup times, s
	main   *phaseResult // the measured (untraced or traced) phase
	base   *phaseResult // traced runs: the untraced baseline phase
}

func (ph *phaseResult) okRecs() []record {
	var out []record
	for _, r := range ph.recs {
		if r.status == http.StatusOK {
			out = append(out, r)
		}
	}
	return out
}

func (ph *phaseResult) qps() float64 { return float64(len(ph.okRecs())) / ph.window.Seconds() }

// shapeLat returns each shape's successful round trips, ms.
func (ph *phaseResult) shapeLat() map[string]*obs.Summary {
	out := map[string]*obs.Summary{}
	for _, rec := range ph.okRecs() {
		if out[rec.shape] == nil {
			out[rec.shape] = obs.NewSummary(len(ph.recs))
		}
		out[rec.shape].Observe(ms(rec.rt))
	}
	return out
}

// appendLat returns the acknowledged appends' latencies (from due time
// to reply) and their count.
func (ph *phaseResult) appendLat() (*obs.Summary, int) {
	lat := obs.NewSummary(len(ph.appends))
	for _, b := range ph.appends {
		if b.ok {
			lat.Observe(b.latMS)
		}
	}
	return lat, lat.Count()
}

// value is one printed metric with its sample count (0: not a sample
// statistic).
type value struct {
	v float64
	n int
}

func (r *result) endToEnd() map[string]value {
	ph := r.main
	ok := ph.okRecs()
	lat := obs.NewSummary(len(ok))
	for _, rec := range ok {
		lat.Observe(ms(rec.rt))
	}
	alat, aok := ph.appendLat()
	out := map[string]value{
		"query_p50_ms":        {lat.Quantile(0.5), lat.Count()},
		"query_p99_ms":        {lat.Quantile(0.99), lat.Count()},
		"query_qps":           {ph.qps(), lat.Count()},
		"query_ok_frac":       {ratio(len(ok), len(ph.recs)), len(ph.recs)},
		"knn_recall":          {ratio(ph.recallSum, ph.recallN), ph.recallN},
		"append_p50_ms":       {alat.Quantile(0.5), aok},
		"append_p99_ms":       {alat.Quantile(0.99), aok},
		"append_ok_frac":      {ratio(aok, len(ph.appends)), len(ph.appends)},
		"acked_lost_frac":     {1 - ratio(ph.present, ph.acked), ph.acked},
		"heap_mb":             {float64(ph.final.HeapInuse) / (1 << 20), 0},
		"store_bytes_per_row": {ratio(ph.final.StoreBytes, ph.final.Rows), 0},
		// setupReps is odd, so the nearest-rank median is the middle run.
		"setup_s": {r.setups.Quantile(0.5), r.setups.Count()},
	}
	return out
}

type number interface{ ~int | ~int64 | ~float64 }

// ratio is a/b, or 0 when b is 0.
func ratio[A, B number](a A, b B) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (r *result) print(out io.Writer) {
	ph := r.main
	fmt.Fprintf(out, "workload %s  seed %d  window %.1fs  gomaxprocs %d  traced %v\n",
		r.w.name, r.seed, ph.window.Seconds(), runtime.GOMAXPROCS(0), r.traced)
	r.printSizes(out)
	r.printMix(out)
	fmt.Fprintf(out, "durability: %d acknowledged appended rows, %d present after SIGKILL and reopen "+
		"(flush policy: nothing is durable before DB.Flush or DB.Close; the kv page cache is write-back "+
		"and the store's bucket directory and meta page are written only by Flush; the benchmark never calls Flush)\n",
		ph.acked, ph.present)
	if ph.reopenErr != nil {
		fmt.Fprintf(out, "durability: reopen failed: %v\n", ph.reopenErr)
	}
	failures := append(append([]string(nil), ph.failures...), r.baseFailures()...)
	fmt.Fprintf(out, "correctness: %d answers checked against the oracle, %d mismatches\n", r.checked(), len(failures))
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(out, "  ... %d more\n", len(failures)-i)
			break
		}
		fmt.Fprintf(out, "  mismatch: %s\n", f)
	}

	metrics := map[string]any{}
	if !r.traced {
		vals := r.endToEnd()
		for _, m := range e2eMetrics {
			v := vals[m.name]
			fmt.Fprintf(out, "  %-22s %14.6g %-6s (n=%d)\n", m.name, v.v, m.unit, v.n)
			metrics[m.name] = map[string]any{"value": v.v, "unit": m.unit}
		}
		// Printed, not bounded: live_ingest's append tail is bimodal
		// across runs (an append stall the product shows in some runs
		// and not others), so no bound of at most 25% can hold it.
		v := vals["append_p99_ms"]
		fmt.Fprintf(out, "  %-22s %14.6g %-6s (n=%d, unbounded diagnostic)\n", "append_p99_ms", v.v, "ms", v.n)
	} else {
		sp := analyzeSpans(ph.recs)
		sp.print(out)
		vals := r.perLayer(sp)
		for _, m := range layerMetrics {
			v := vals[m.name]
			fmt.Fprintf(out, "  %-36s %14.6g %-6s (n=%d)\n", m.name, v.v, m.unit, v.n)
			metrics[m.name] = map[string]any{"value": v.v, "unit": m.unit}
		}
	}
	attempted, failed := len(ph.recs)+len(ph.appends), 0
	for _, rec := range ph.recs {
		if rec.status != http.StatusOK {
			failed++
		}
	}
	for _, b := range ph.appends {
		if !b.ok {
			failed++
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   len(failures) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	fmt.Fprintln(out, string(line))
}

func (r *result) checked() int {
	n := r.main.checked
	if r.base != nil {
		n += r.base.checked
	}
	return n
}

func (r *result) baseFailures() []string {
	if r.base == nil {
		return nil
	}
	return r.base.failures
}

// printSizes states the run's sizes so claims can cite them.
func (r *result) printSizes(out io.Writer) {
	ph := r.main
	fmt.Fprintf(out, "sizes: %d stored rows", ph.final.Rows)
	if r.w.budget > 0 {
		fmt.Fprintf(out, ", column footprint %.1f MiB = %.1f x the %.1f MiB budget",
			ph.final.ColumnBytes/(1<<20), ph.final.ColumnBytes/float64(r.w.budget), float64(r.w.budget)/(1<<20))
	} else {
		fmt.Fprintf(out, ", column footprint %.1f MiB (tiering off)", ph.final.ColumnBytes/(1<<20))
	}
	seen := map[string]bool{}
	repeats, cacheable := 0, 0
	var ws int64
	for _, rec := range ph.recs {
		q := rec.req
		q.Trace = false
		k, _ := json.Marshal(q)
		if seen[string(k)] {
			repeats++
		} else {
			seen[string(k)] = true
			if !q.NoCache && rec.status == http.StatusOK {
				cacheable++
				ws += int64(rec.bytes)
			}
		}
	}
	if cacheable > 0 {
		fmt.Fprintf(out, ", result-cache working set %d entries ≈ %.3g of capacity", cacheable,
			float64(ws)/float64(max(ph.after.ResultCache.CapBytes, 1)))
	} else {
		fmt.Fprintf(out, ", result cache bypassed (no_cache)")
	}
	fmt.Fprintf(out, ", %.3f of %d requests repeat an earlier fingerprint\n", ratio(repeats, len(ph.recs)), len(ph.recs))
}

// hitRatio is a cache's hit ratio between two snapshots.
func hitRatio(after, before service.CacheStats) float64 {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	return ratio(hits, hits+misses)
}

// printMix states the window's request mix as measured: the result
// cache and UDF memo hit ratios, and each shape's share of requests and
// of client round-trip time.
func (r *result) printMix(out io.Writer) {
	ph := r.main
	fmt.Fprintf(out, "reuse: result-cache hit ratio %.3f, UDF memo hit ratio %.3f, %d coalesced\n",
		hitRatio(ph.after.ResultCache, ph.before.ResultCache), hitRatio(ph.after.UDFCache, ph.before.UDFCache),
		ph.after.Coalesced-ph.before.Coalesced)
	shapes := ph.shapeLat()
	total, n := 0.0, 0
	for _, s := range shapes {
		total += s.Sum()
		n += s.Count()
	}
	fmt.Fprintf(out, "mix: %-13s %8s %9s %9s %10s\n", "shape", "requests", "req share", "rt share", "p50 ms")
	for _, name := range shapeNames {
		if s := shapes[name]; s != nil {
			fmt.Fprintf(out, "     %-13s %8d %9.3f %9.3f %10.4g\n", name, s.Count(),
				ratio(s.Count(), n), ratio(s.Sum(), total), s.Quantile(0.5))
		}
	}
}

// perLayer derives the per-layer metrics of a traced run.
func (r *result) perLayer(sp *spanStats) map[string]value {
	ph, base := r.main, r.base
	ok := ph.okRecs()
	nq := int64(len(ok))
	d := func(a, b int64) float64 { return float64(a - b) }
	bef, aft := ph.before, ph.after
	out := map[string]value{}
	var over, kb obs.Summary
	shapes := ph.shapeLat()
	for _, rec := range ok {
		over.Observe(ms(rec.rt) - rec.resp.DurationMS)
		kb.Observe(float64(rec.bytes) / 1024)
	}
	summary := func(s *obs.Summary, q float64) value {
		if s == nil {
			return value{}
		}
		return value{s.Quantile(q), s.Count()}
	}
	out["http.overhead_ms.p50"] = summary(&over, 0.5)
	out["http.resp_kb.mean"] = value{kb.Mean(), kb.Count()}
	for _, s := range shapeNames {
		out["service.shape."+s+".p50_ms"] = summary(shapes[s], 0.5)
	}
	out["service.queue_wait_ms.p50"] = summary(sp.durs["queue"], 0.5)
	out["service.queue_wait_ms.p99"] = summary(sp.durs["queue"], 0.99)
	out["service.shed"] = value{d(aft.AdmissionShed, bef.AdmissionShed), 0}
	out["service.rejected"] = value{d(aft.Rejected, bef.Rejected), 0}
	out["service.plan_ms.p50"] = summary(sp.durs["plan"], 0.5)
	out["service.execute_ms.p50"] = summary(sp.durs["execute"], 0.5)
	out["service.direct_query_ms.p50"] = value{ph.layers["service.direct_query_ms.p50"], 0}
	out["service.result_cache.hit_ratio"] = value{hitRatio(aft.ResultCache, bef.ResultCache), 0}
	out["service.udf_cache.hit_ratio"] = value{hitRatio(aft.UDFCache, bef.UDFCache), 0}
	out["service.coalesced"] = value{d(aft.Coalesced, bef.Coalesced), 0}

	var frag, merge obs.Summary
	frag.Merge(sp.durs["fragment"])
	frag.Merge(sp.durs["knn-fragment"])
	merge.Merge(sp.durs["merge"])
	merge.Merge(sp.durs["knn-merge"])
	out["scatter.fragment_ms.p50"] = summary(&frag, 0.5)
	out["scatter.fragment_max_ms.p50"] = summary(&sp.fragMax, 0.5)
	out["scatter.merge_ms.p50"] = summary(&merge, 0.5)
	out["scatter.tasks_per_query"] = value{ratio(d(aft.ScatterTasks, bef.ScatterTasks), nq), 0}
	out["scatter.hedged_frac"] = value{ratio(d(aft.HedgedFragments, bef.HedgedFragments), aft.ScatterTasks-bef.ScatterTasks), 0}
	out["scatter.fragment_retries"] = value{d(aft.FragmentRetries, bef.FragmentRetries), 0}

	for _, k := range []string{"service.append_ms.p50", "service.append_ms.p99",
		"vision.detect_ms_per_frame", "vision.ocr_ms_per_frame", "core.filter_us", "core.topk_us",
		"core.rows_scanned_per_result", "core.knn_exact_us", "core.knn_approx_us", "core.knn_brute_us"} {
		out[k] = value{ph.layers[k], 0}
	}
	out["exec.kernels"] = value{d(aft.DeviceKernels, bef.DeviceKernels), 0}
	out["exec.launches"] = value{d(aft.DeviceLaunches, bef.DeviceLaunches), 0}
	out["core.segment.loads_per_query"] = value{ratio(d(aft.SegmentLoads, bef.SegmentLoads), nq), 0}
	out["core.segment.evictions_per_query"] = value{ratio(d(aft.SegmentEvictions, bef.SegmentEvictions), nq), 0}
	out["core.segment.resident_mb"] = value{float64(aft.SegmentResidentBytes) / (1 << 20), 0}
	out["core.column_extends"] = value{d(aft.ColumnExtends, bef.ColumnExtends), 0}
	out["core.extend_reuse_ratio"] = value{ratio(d(aft.ExtendReuseBlocks, bef.ExtendReuseBlocks), aft.ExtendTotalBlocks-bef.ExtendTotalBlocks), 0}
	out["core.index_extends"] = value{d(aft.IndexExtends, bef.IndexExtends), 0}
	out["core.index_rebuilds"] = value{d(aft.IndexRebuilds, bef.IndexRebuilds), 0}
	out["core.replica_append_errors"] = value{d(aft.ReplicaAppendErrors, bef.ReplicaAppendErrors), 0}
	out["core.out_of_sync_replicas"] = value{float64(aft.OutOfSyncReplicas), 0}

	rb, ra := ph.rtBefore, ph.rtAfter
	out["kv.pager_reads_per_query"] = value{ratio(d(ra.PagerReads, rb.PagerReads), nq), 0}
	out["kv.store_mb"] = value{float64(ph.final.StoreBytes) / (1 << 20), 0}
	out["go.gc_cycles"] = value{float64(ra.NumGC - rb.NumGC), 0}
	out["go.gc_pause_ms.total"] = value{float64(ra.PauseNS-rb.PauseNS) / 1e6, 0}
	out["go.alloc_mb_per_s"] = value{float64(ra.TotalAlloc-rb.TotalAlloc) / (1 << 20) / ph.window.Seconds(), 0}

	var late obs.Summary
	if r.w.appendRate > 0 {
		for _, b := range ph.appends {
			late.Observe(b.lateMS)
		}
	}
	out["gen.lateness_ms.p99"] = summary(&late, 0.99)
	out["trace.overhead_frac"] = value{1 - ratio(ph.qps(), base.qps()), 0}
	out["trace.unattributed_frac"] = value{ratio(sp.unattrUS, sp.totalUS), 0}
	return out
}
