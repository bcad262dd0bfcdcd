package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/service"
)

// setupReps is how many times an untraced run builds the database and
// starts the service; setup_s is the median.
const setupReps = 3

// load is one workload's request source and oracle.
type load interface {
	// client returns the request generator of closed-loop client i.
	client(i int) func() (shape string, req service.Request)
	setupProbe() (service.Request, func(*service.Response) error)
	// check verifies an answer; it returns the recall of a
	// planner-default kNN answer, -1 for every other shape.
	check(rec *record) (float64, error)
	// prepare runs on a freshly set-up server before its load starts;
	// log is the phase's concurrent appender (nil without one).
	prepare(cn *conn, log *appendLog) error
	// freeze is called once no request or append is in flight.
	freeze()
}

type runner struct {
	w      workloadSpec
	seed   int64
	window time.Duration
	warmup time.Duration
	bin    string
	root   string
	load   load
	gen    *generator
	nDirs  int
}

func runWorkload(w workloadSpec, seed int64, window time.Duration, traced bool) (*result, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	r := &runner{w: w, seed: seed, window: window, warmup: w.warmup,
		bin: bin, root: root, gen: newGenerator(seed)}
	if w.paper {
		r.load = newPaperWorkload(seed, w.clients)
	} else {
		maxAppended := probeBatches * batchRows
		if w.appendRate > 0 {
			secs := (r.warmup + window).Seconds() + 5
			maxAppended = int(secs*float64(w.appendRate)) * batchRows
		}
		r.load = newGenWorkload(w, seed, maxAppended)
	}

	res := &result{w: w, seed: seed, traced: traced}
	if !traced {
		for i := 0; i < setupReps; i++ {
			c, s, err := r.setup()
			if err != nil {
				return nil, err
			}
			res.setups.Observe(s)
			if i < setupReps-1 {
				c.discard()
				continue
			}
			ph, err := r.phase(c, false)
			if err != nil {
				return nil, err
			}
			res.main = ph
		}
		return res, nil
	}
	// Traced run: an untraced baseline phase, then the traced phase, each
	// on a freshly built server, so tracing overhead is their difference.
	for _, tr := range []bool{false, true} {
		c, s, err := r.setup()
		if err != nil {
			return nil, err
		}
		res.setups.Observe(s)
		ph, err := r.phase(c, tr)
		if err != nil {
			return nil, err
		}
		if tr {
			res.main = ph
		} else {
			res.base = ph
		}
	}
	if err := writeSpans(w.name, seed, res.main.recs); err != nil {
		return nil, err
	}
	return res, nil
}

// child is a running server process.
type child struct {
	cmd    *osexec.Cmd
	stdin  io.WriteCloser
	base   string
	dir    string
	killed bool
}

func (r *runner) startChild() (*child, error) {
	r.nDirs++
	dir := filepath.Join(r.root, fmt.Sprintf("db-%d", r.nDirs))
	cmd := osexec.Command(r.bin, "serve", "-workload", r.w.name, "-seed", strconv.FormatInt(r.seed, 10), "-dir", dir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, dir: dir}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		line := ""
		if sc.Scan() {
			line = sc.Text()
		}
		ready <- line
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case line := <-ready:
		addr, ok := strings.CutPrefix(line, "READY ")
		if !ok {
			c.kill()
			return nil, fmt.Errorf("server did not start (first line %q)", line)
		}
		c.base = "http://" + addr
		return c, nil
	case <-time.After(150 * time.Second):
		c.kill()
		return nil, fmt.Errorf("server not ready after 150s")
	}
}

// kill stops the server with SIGKILL, so nothing it has not already
// written survives, and waits for it to exit.
func (c *child) kill() {
	if c.killed {
		return
	}
	c.killed = true
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
	c.stdin.Close()
}

// discard kills the server and deletes its data at once, so the kernel
// drops its dirty pages instead of writing them back during the next
// measurement.
func (c *child) discard() {
	c.kill()
	_ = os.RemoveAll(c.dir)
}

// setup builds the database and starts the service, timed up to the
// first correct answer.
func (r *runner) setup() (*child, float64, error) {
	t0 := time.Now()
	c, err := r.startChild()
	if err != nil {
		return nil, 0, err
	}
	req, verify := r.load.setupProbe()
	cn := newConn(c.base)
	defer cn.close()
	status, data, _, err := cn.post("/query", req)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, data)
	}
	var resp service.Response
	if err == nil {
		err = json.Unmarshal(data, &resp)
	}
	if err == nil {
		err = verify(&resp)
	}
	if err != nil {
		c.kill()
		return nil, 0, fmt.Errorf("setup probe: %w", err)
	}
	return c, time.Since(t0).Seconds(), nil
}

// phaseResult is what one measured phase on one server observed.
type phaseResult struct {
	traced   bool
	start    time.Time // the window opens
	window   time.Duration
	recs     []record // requests sent inside the window
	extra    []record // warm-up and quiesced requests: checked, not timed
	appends  []batch  // the window's appends (live) or the ingest probe's
	ingest   *appendLog
	before   service.Stats
	after    service.Stats
	rtBefore runtimeStats
	rtAfter  runtimeStats
	final    runtimeStats
	layers   map[string]float64

	acked, present int
	reopenErr      error

	checked   int
	failures  []string
	recallSum float64
	recallN   int
}

func (r *runner) phase(c *child, traced bool) (*phaseResult, error) {
	defer c.kill()
	// The clients mostly wait on the network: one P is enough, and
	// leaves the server the scheduler's attention while it is measured.
	prev := runtime.GOMAXPROCS(1)
	restore := sync.OnceFunc(func() { runtime.GOMAXPROCS(prev) })
	defer restore()
	ph := &phaseResult{traced: traced, window: r.window}
	conns := []*conn{newConn(c.base), newConn(c.base)}
	defer conns[0].close()
	defer conns[1].close()

	var log *appendLog
	if r.w.appendRate > 0 {
		log = &appendLog{col: genCol, first: r.w.baseRows}
	}
	if err := r.load.prepare(conns[0], log); err != nil {
		return nil, err
	}
	start := time.Now()
	winStart, winEnd := start.Add(r.warmup), start.Add(r.warmup+r.window)
	ph.start = winStart
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		recs []record
	)
	for i := 0; i < r.w.clients; i++ {
		next := r.load.client(i)
		cn := conns[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []record
			for time.Now().Before(winEnd) {
				shape, req := next()
				req.Trace = traced
				rec := cn.query(shape, req, log)
				mine = append(mine, rec)
				if rec.status != http.StatusOK {
					time.Sleep(20 * time.Millisecond)
				}
			}
			mu.Lock()
			recs = append(recs, mine...)
			mu.Unlock()
		}()
	}
	if log != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			log.openLoop(conns[1], r.gen, r.w.appendRate, winEnd)
		}()
	}
	// Counter snapshots at the window's edges go over the first query
	// connection, so the server never sees a third connection.
	time.Sleep(time.Until(winStart))
	if err := snapshot(conns[0], &ph.before, &ph.rtBefore); err != nil {
		return nil, err
	}
	time.Sleep(time.Until(winEnd))
	wg.Wait()
	if err := snapshot(conns[0], &ph.after, &ph.rtAfter); err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if !rec.sent.Before(winStart) && rec.sent.Before(winEnd) {
			ph.recs = append(ph.recs, rec)
		} else {
			ph.extra = append(ph.extra, rec)
		}
	}

	if log != nil {
		for _, b := range log.batches() {
			if !b.due.Before(winStart) {
				ph.appends = append(ph.appends, b)
			}
		}
		ph.ingest = log
		// Quiesced reads: with no append in flight every answer is exact.
		next := r.load.client(99)
		for i := 0; i < 12; i++ {
			shape, req := next()
			ph.extra = append(ph.extra, conns[0].query(shape, req, log))
		}
	} else {
		ph.ingest = &appendLog{col: genCol, first: r.w.baseRows}
		if r.w.paper {
			ph.ingest = &appendLog{col: ingestCol}
		}
		// Start the probe from a collected heap, so where the window
		// left the GC cycle does not decide the append tail.
		var rt runtimeStats
		if err := conns[1].getJSON("/_bench/runtime", &rt); err != nil {
			return nil, err
		}
		ph.ingest.closedLoop(conns[1], r.gen, probeBatches)
		ph.appends = ph.ingest.batches()
	}
	if err := conns[0].getJSON("/_bench/runtime?columns=1", &ph.final); err != nil {
		return nil, err
	}
	if traced {
		if err := r.layers(conns[0], ph); err != nil {
			return nil, err
		}
	}
	c.kill()
	restore()
	r.durability(c, ph)
	_ = os.RemoveAll(c.dir)
	r.load.freeze()
	r.checkAll(ph)
	return ph, nil
}

func snapshot(cn *conn, st *service.Stats, rt *runtimeStats) error {
	if err := cn.getJSON("/stats", st); err != nil {
		return err
	}
	return cn.getJSON("/_bench/runtime?gc=0", rt)
}

// layers asks the server to time direct calls into each layer, passing
// up to four requests of every shape the window sent.
func (r *runner) layers(cn *conn, ph *phaseResult) error {
	per := map[string]int{}
	var lr layersRequest
	for _, rec := range ph.recs {
		if per[rec.shape] < 4 && rec.status == http.StatusOK {
			per[rec.shape]++
			lr.Requests = append(lr.Requests, rec.req)
		}
	}
	status, data, _, err := cn.post("/_bench/layers", lr)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("layer probes: status %d: %s", status, data)
	}
	return json.Unmarshal(data, &ph.layers)
}

// durability reopens the killed server's data and counts how many
// acknowledged appended rows are present. The benchmark never calls
// Flush, and the kv store writes its bucket directory and meta page
// only in Flush (DB.Flush, DB.Close), so a reopen finds at most what
// write-back page eviction happened to write, and no root to reach it.
func (r *runner) durability(c *child, ph *phaseResult) {
	want := map[uint64]uint64{} // id -> generated frame
	for b, bt := range ph.ingest.batches() {
		for k, id := range bt.ids {
			want[id] = uint64(ph.ingest.first + b*batchRows + k)
		}
	}
	ph.acked = len(want)
	defer func() {
		if p := recover(); p != nil {
			ph.reopenErr = fmt.Errorf("reopen panicked: %v", p)
		}
	}()
	get, closeFn, err := reopen(r.w, c.dir, ph.ingest.col)
	if err != nil {
		ph.reopenErr = err
		return
	}
	defer closeFn()
	for id, frame := range want {
		if p, err := get(core.PatchID(id)); err == nil && p.Ref.Frame == frame {
			ph.present++
		}
	}
}

// reopen opens the data a killed server left in dir (paper_mix: the
// database file bench.NewEnv creates there) and returns a lookup into
// collection col.
func reopen(w workloadSpec, dir, col string) (func(core.PatchID) (*core.Patch, error), func(), error) {
	if w.paper {
		db, err := core.Open(filepath.Join(dir, "deeplens.db"), exec.New(exec.CPU))
		if err != nil {
			return nil, nil, err
		}
		c, err := db.Collection(col)
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		return c.Get, func() { db.Close() }, nil
	}
	sdb, err := core.OpenShardedReplicas(dir, w.shards, w.replicas, exec.New(exec.CPU))
	if err != nil {
		return nil, nil, err
	}
	c, err := sdb.Collection(col)
	if err != nil {
		sdb.Close()
		return nil, nil, err
	}
	return c.Get, func() { sdb.Close() }, nil
}

// checkAll runs the oracle over every answered request on two workers.
func (r *runner) checkAll(ph *phaseResult) {
	all := append(append([]record(nil), ph.recs...), ph.extra...)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	next := 0
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(all) {
					return
				}
				rec := &all[i]
				if rec.status != http.StatusOK {
					continue
				}
				recall, err := r.load.check(rec)
				mu.Lock()
				ph.checked++
				if err != nil {
					ph.failures = append(ph.failures, fmt.Sprintf("%s: %v", rec.shape, err))
				}
				if recall >= 0 {
					ph.recallSum += recall
					ph.recallN++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Strings(ph.failures)
}

// Workload adapters.

func (pw *paperWorkload) client(i int) func() (string, service.Request) {
	pr := pw.newRand(i)
	return func() (string, service.Request) { return pw.next(pr) }
}

func (pw *paperWorkload) freeze() {}

func (gw *genWorkload) prepare(_ *conn, log *appendLog) error {
	gw.log = log
	return nil
}

func (gw *genWorkload) client(i int) func() (string, service.Request) {
	rng := rand.New(rand.NewSource(gw.g.seed*7919 + int64(i)))
	n := i
	return func() (string, service.Request) {
		n++
		return gw.next(rng, n-1)
	}
}
