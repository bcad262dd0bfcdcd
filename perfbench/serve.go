package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/vision"
)

// The server process: builds one workload's database, serves the real
// service.Handler() on a loopback port and adds read-only benchmark
// endpoints beside it under /_bench/ (runtime counters, direct layer
// probes, collection snapshots for the oracle). It
// prints "READY <addr>" once it accepts requests and exits when its
// standard input closes or it is killed.

type server struct {
	w    workloadSpec
	seed int64
	svc  *service.Service
	env  *bench.Env    // paper_mix
	sdb  *core.Sharded // generated workloads
	dbs  []*core.DB    // every DB (all replicas) behind the service
}

func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to build")
	seed := fs.Int64("seed", 1, "input seed")
	dir := fs.String("dir", "", "data directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *dir == "" {
		fmt.Fprintln(os.Stderr, "serve: need -workload and -dir:", err)
		return 2
	}
	srv, err := buildServer(w, *seed, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.svc.Handler())
	mux.HandleFunc("/_bench/runtime", srv.handleRuntime)
	mux.HandleFunc("/_bench/layers", srv.handleLayers)
	mux.HandleFunc("/_bench/snapshot", srv.handleSnapshot)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	// The client process holds our stdin open; EOF means it is gone.
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	fmt.Printf("READY %s\n", ln.Addr())
	if err := http.Serve(ln, mux); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	return 0
}

// trafficSource adapts the TrafficCam generator to service.FrameSource.
type trafficSource struct{ tr *dataset.Traffic }

func (t trafficSource) Frames() int { return t.tr.Frames }
func (t trafficSource) Render(i int) (*codec.Image, error) {
	img, _ := t.tr.Render(i)
	return img, nil
}

func serviceConfig(w workloadSpec) service.Config {
	return service.Config{
		Workers:         2,
		Device:          exec.CPU,
		ModelSeed:       bench.ModelSeed,
		ColumnMemBudget: w.budget,
	}
}

func buildServer(w workloadSpec, seed int64, dir string) (*server, error) {
	srv := &server{w: w, seed: seed}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if w.paper {
		srv.env, err = bench.NewEnv(dir, paperConfig(), exec.New(exec.CPU))
		if err != nil {
			return nil, err
		}
		if _, err := srv.env.DB.CreateCollection(ingestCol, genSchema()); err != nil {
			return nil, err
		}
		srv.dbs = []*core.DB{srv.env.DB}
		if srv.svc, err = service.New(srv.env.DB, serviceConfig(w)); err != nil {
			return nil, err
		}
		srv.svc.RegisterSource("trafficcam", trafficSource{dataset.NewTraffic(sweepConfig())})
		return srv, nil
	}
	srv.sdb, err = core.OpenShardedReplicas(dir, w.shards, w.replicas, exec.New(exec.CPU))
	if err != nil {
		return nil, err
	}
	sc, err := srv.sdb.CreateCollection(genCol, genSchema())
	if err != nil {
		return nil, err
	}
	g := newGenerator(seed)
	for i := 0; i < w.baseRows; i++ {
		if err := sc.Append(g.row(i).patch()); err != nil {
			return nil, err
		}
	}
	for i := 0; i < w.shards; i++ {
		for j := 0; j < w.replicas; j++ {
			srv.dbs = append(srv.dbs, srv.sdb.ReplicaDB(i, j))
		}
	}
	if srv.svc, err = service.NewSharded(srv.sdb, serviceConfig(w)); err != nil {
		return nil, err
	}
	return srv, nil
}

// runtimeStats is the server process's own record: Go runtime counters
// after a forced GC, and kv pager totals over every DB.
type runtimeStats struct {
	HeapInuse   uint64  `json:"heap_inuse"`
	NumGC       uint32  `json:"num_gc"`
	PauseNS     uint64  `json:"pause_total_ns"`
	TotalAlloc  uint64  `json:"total_alloc"`
	PagerReads  int64   `json:"pager_reads"`
	StoreBytes  int64   `json:"store_bytes"`
	Rows        int64   `json:"rows"`
	ColumnBytes float64 `json:"column_bytes"`
}

// handleRuntime reports runtimeStats; ?gc=0 skips the forced GC (for
// snapshots taken under load) and ?columns=1 adds the column sizing.
func (s *server) handleRuntime(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("gc") != "0" {
		runtime.GC()
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rs := runtimeStats{HeapInuse: mem.HeapInuse, NumGC: mem.NumGC, PauseNS: mem.PauseTotalNs, TotalAlloc: mem.TotalAlloc}
	for _, db := range s.dbs {
		p := db.Store().Pager()
		rs.PagerReads += p.Reads()
		rs.StoreBytes += int64(p.NumPages()) * kv.PageSize
	}
	for _, c := range s.primaryCollections() {
		rs.Rows += int64(c.Len())
		// Sizing projects every column, so only the final call asks.
		if r.URL.Query().Get("columns") == "1" {
			rs.ColumnBytes += columnBytes(c)
		}
	}
	writeJSON(w, rs)
}

// primaryCollections lists every collection partition on the primary
// replicas: each stored row exactly once.
func (s *server) primaryCollections() []*core.Collection {
	var out []*core.Collection
	if s.env != nil {
		for _, name := range s.env.DB.Collections() {
			if c, err := s.env.DB.Collection(name); err == nil {
				out = append(out, c)
			}
		}
		return out
	}
	for _, name := range s.sdb.Collections() {
		sc, err := s.sdb.Collection(name)
		if err != nil {
			continue
		}
		for i := 0; i < sc.Shards(); i++ {
			out = append(out, sc.Shard(i))
		}
	}
	return out
}

// columnBytes estimates a collection's columnar footprint from its
// segment count and value width (8 bytes per numeric value, 4 per
// dictionary-coded string), over the columns built so far.
func columnBytes(c *core.Collection) float64 {
	cs, err := c.Columns()
	if err != nil {
		return 0
	}
	var b float64
	for _, f := range c.Schema().Fields {
		col, ok := cs.Column(f.Name)
		if !ok {
			continue
		}
		width := 8.0
		if col.Kind() == core.KindStr {
			width = 4
		}
		b += float64(col.Blocks()) * core.ColumnBlockSize * width
	}
	return b
}

// handleSnapshot returns a collection's Collection.Snapshot() as
// encoded patches, for the client process's row-scan oracle.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.env == nil {
		http.Error(w, "snapshots are served for paper_mix only", http.StatusNotFound)
		return
	}
	col, err := s.env.DB.Collection(r.URL.Query().Get("collection"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	snap, _, err := col.Snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := make([][]byte, len(snap))
	for i, p := range snap {
		out[i] = p.Marshal()
	}
	writeJSON(w, out)
}

// layersRequest carries a sample of the workload's requests for direct
// Service.Query timing.
type layersRequest struct {
	Requests []service.Request `json:"requests"`
}

// handleLayers times direct calls into public functions of each layer,
// with no HTTP in the way. Run only while no load is applied.
func (s *server) handleLayers(w http.ResponseWriter, r *http.Request) {
	var lr layersRequest
	if err := json.NewDecoder(r.Body).Decode(&lr); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out := map[string]float64{}
	var direct obs.Summary
	for _, req := range lr.Requests {
		req.Trace = false
		t0 := time.Now()
		if _, err := s.svc.Query(context.Background(), req); err != nil {
			http.Error(w, "direct query: "+err.Error(), http.StatusInternalServerError)
			return
		}
		direct.Observe(ms(time.Since(t0)))
	}
	out["service.direct_query_ms.p50"] = direct.Quantile(0.5)
	if err := s.probeAppend(out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	col, field, label := s.probeTarget()
	if err := probeColumns(col, label, out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err := probeVectors(col, field, out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	probeVision(out)
	writeJSON(w, out)
}

// probeTarget names the collection partition, vector field and label
// value the direct core probes run on.
func (s *server) probeTarget() (*core.Collection, string, string) {
	if s.env != nil {
		c, _ := s.env.DB.Collection(bench.ColTrafficDets)
		return c, "emb", "car"
	}
	sc, _ := s.sdb.Collection(genCol)
	return sc.Shard(0), "emb", labelName(0)
}

const probeReps = 40

// appendProbeBatches is how many batches probeAppend appends.
const appendProbeBatches = 64

// probeAppend times direct Service.Append calls of generated batches
// into the workload's ingest collection, at the size the run left it.
// The rows are numbered past every row a run appends over HTTP, so the
// oracle and the durability count, which follow the client's own
// append log, never see them.
func (s *server) probeAppend(out map[string]float64) error {
	col, first := genCol, 1<<30
	if s.env != nil {
		col = ingestCol
	}
	g := newGenerator(s.seed)
	var lat obs.Summary
	for b := 0; b < appendProbeBatches; b++ {
		req := service.AppendRequest{Collection: col, Patches: make([]service.PatchSpec, batchRows)}
		for i := range req.Patches {
			req.Patches[i] = g.row(first + b*batchRows + i).spec()
		}
		// Append takes metadata as JSON decodes it, as /append passes it.
		buf, _ := json.Marshal(req)
		req = service.AppendRequest{}
		if err := json.Unmarshal(buf, &req); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := s.svc.Append(context.Background(), req); err != nil {
			return fmt.Errorf("append probe: %w", err)
		}
		lat.Observe(ms(time.Since(t0)))
	}
	out["service.append_ms.p50"] = lat.Quantile(0.5)
	out["service.append_ms.p99"] = lat.Quantile(0.99)
	return nil
}

func probeColumns(col *core.Collection, label string, out map[string]float64) error {
	cs, err := col.Columns()
	if err != nil {
		return err
	}
	var filterUS, topkUS obs.Summary
	var scanned, results int
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		sel, st, ok := cs.FilterEqStats("label", core.StrV(label))
		filterUS.Observe(us(time.Since(t0)))
		if !ok {
			return fmt.Errorf("column probe: label is not columnar")
		}
		scanned += st.RowsScanned
		results += len(sel)
		t0 = time.Now()
		if _, ok := cs.TopK(sel, "score", true, 10); !ok {
			return fmt.Errorf("column probe: score is not columnar")
		}
		topkUS.Observe(us(time.Since(t0)))
	}
	out["core.filter_us"] = filterUS.Quantile(0.5)
	out["core.topk_us"] = topkUS.Quantile(0.5)
	out["core.rows_scanned_per_result"] = float64(scanned) / float64(max(results, 1))
	return nil
}

func probeVectors(col *core.Collection, field string, out map[string]float64) error {
	snap, ver, err := col.Snapshot()
	if err != nil {
		return err
	}
	if len(snap) == 0 {
		return fmt.Errorf("vector probe: empty collection")
	}
	exact, err := col.VectorIndexAt(snap, ver, field, core.VecExact)
	if err != nil {
		return err
	}
	approx, err := col.VectorIndexAt(snap, ver, field, core.VecApprox)
	if err != nil {
		return err
	}
	var ex, ap, br obs.Summary
	for i := 0; i < probeReps; i++ {
		q := snap[(i*7919)%len(snap)].Meta[field].V
		t0 := time.Now()
		exact.KNN(q, 10)
		ex.Observe(us(time.Since(t0)))
		t0 = time.Now()
		approx.KNN(q, 10)
		ap.Observe(us(time.Since(t0)))
		if i < probeReps/4 {
			t0 = time.Now()
			core.BruteKNN(snap, field, q, 10)
			br.Observe(us(time.Since(t0)))
		}
	}
	out["core.knn_exact_us"] = ex.Quantile(0.5)
	out["core.knn_approx_us"] = ap.Quantile(0.5)
	out["core.knn_brute_us"] = br.Quantile(0.5)
	return nil
}

// probeVision times un-memoised model calls on rendered TrafficCam
// frames (rendering excluded).
func probeVision(out map[string]float64) {
	tr := dataset.NewTraffic(paperConfig())
	det := vision.NewDetector(exec.New(exec.CPU), bench.ModelSeed)
	ocr := vision.NewDocumentOCR()
	var dt, ot obs.Summary
	for f := 0; f < 8; f++ {
		img, _ := tr.Render(f * 29 % tr.Frames)
		t0 := time.Now()
		det.Detect(img)
		dt.Observe(ms(time.Since(t0)))
		t0 = time.Now()
		ocr.Recognize(img)
		ot.Observe(ms(time.Since(t0)))
	}
	out["vision.detect_ms_per_frame"] = dt.Quantile(0.5)
	out["vision.ocr_ms_per_frame"] = ot.Quantile(0.5)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
