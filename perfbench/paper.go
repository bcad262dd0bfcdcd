package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/service"
	"repro/internal/vision"
)

// Requests and oracle of paper_mix: the paper's query shapes over the
// TrafficCam, PC and Football collections, and 8-frame inference sweeps
// over a TrafficCam feed. The oracle row-scans the served collections'
// Collection.Snapshot(), searches pairs and neighbours by brute force,
// and re-runs sampled sweeps through un-memoised models.
//
// The shapes are cycled uniformly, as the deeplens-serve load generator
// cycles its workload. Each shape draws its parameters from a variant
// list in a seeded order: with probability freshProb the next
// never-requested variant, otherwise a Zipf-distributed pick from the
// list's first hotHead entries, which the warm-up puts in the result
// cache. The result cache, request coalescing and the UDF memo
// therefore see partial reuse at a rate that stays the same through
// the window, instead of warming up for as long as the run lasts. The
// three draw constants are chosen, not taken from a trace: the run
// prints the repeat share and cache hit ratios they produce.

const sweepFrames = 8

// sweepFeedFrames is the length of the TrafficCam feed registered for
// sweeps: long enough that fresh windows almost never overlap.
const sweepFeedFrames = 40_000

// The parameter draw shared by every shape.
const (
	zipfS     = 1.1 // rand.Zipf needs s > 1
	hotHead   = 20
	freshProb = 0.05
)

var (
	paperShapes = []string{"filter_idx", "filter_scan", "top1", "q4_distinct", "simjoin_idx", "knn", "infer_detect", "infer_ocr"}
	filterCols  = []string{bench.ColTrafficDets, bench.ColFBDets}
	detLabels   = []string{"car", "pedestrian", "player"}
	q4Labels    = []string{"car", "pedestrian"}
)

// variantList is one shape's parameter space in a seeded order.
type variantList struct {
	n    int
	hot  int // the first hot entries are drawn by Zipf
	perm []int
}

func sweepConfig() dataset.Config {
	cfg := paperConfig()
	cfg.TrafficFrames = sweepFeedFrames
	return cfg
}

type paperWorkload struct {
	traffic *dataset.Traffic // the sweep feed
	snaps   map[string][]*core.Patch
	byID    map[core.PatchID]*core.Patch
	seed    int64
	clients int

	words   []string
	knnIDs  []core.PatchID
	q4Eps   []float64 // eps grid, nudged off every pair distance
	ghist   []float64 // likewise for the pc.images ghist join
	starts  []int     // sweep window starts
	lists   map[string]*variantList
	q4Pairs map[string][]pair // per label: pairs by ascending distance
	q4N     map[string]int    // per label: detections
	ghPairs []float64         // sorted ghist pair distances

	mu      sync.Mutex
	q4      map[string]int
	frames  map[int][]string // per frame: detected labels
	ocrN    map[int]int      // per frame: recognised words
	det     *vision.Detector
	ocr     *vision.OCR
	sampled map[string]bool // sweep windows the oracle re-ran
	nSample map[string]int  // per UDF: distinct windows re-run
}

// newPaperWorkload prepares the oracle's models; prepare loads the
// served data.
func newPaperWorkload(seed int64, clients int) *paperWorkload {
	return &paperWorkload{seed: seed, clients: clients, traffic: dataset.NewTraffic(sweepConfig()),
		det: vision.NewDetector(exec.New(exec.CPU), bench.ModelSeed), ocr: vision.NewDocumentOCR(),
		frames: map[int][]string{}, ocrN: map[int]int{}}
}

// prepare row-scans the served collections (Collection.Snapshot() in the
// server process, shipped as encoded patches) and derives the variant
// lists from them. Two builds of this database need not agree row for
// row, so the oracle always reads the one being served.
func (pw *paperWorkload) prepare(cn *conn, _ *appendLog) error {
	pw.snaps = map[string][]*core.Patch{}
	pw.byID = map[core.PatchID]*core.Patch{}
	pw.q4 = map[string]int{}
	pw.sampled, pw.nSample = map[string]bool{}, map[string]int{}
	pw.words, pw.knnIDs, pw.ghPairs = nil, nil, nil
	for _, name := range []string{bench.ColTrafficDets, bench.ColFBDets, bench.ColPCWords, bench.ColPCImages} {
		var raw [][]byte
		if err := cn.getJSON("/_bench/snapshot?collection="+name, &raw); err != nil {
			return err
		}
		for _, b := range raw {
			p, err := core.UnmarshalPatch(b)
			if err != nil {
				return fmt.Errorf("snapshot of %s: %w", name, err)
			}
			pw.snaps[name] = append(pw.snaps[name], p)
		}
	}
	seen := map[string]bool{}
	for _, p := range pw.snaps[bench.ColPCWords] {
		if w := p.Meta["text"].S; !seen[w] {
			seen[w] = true
			pw.words = append(pw.words, w)
		}
	}
	sort.Strings(pw.words)
	for _, p := range pw.snaps[bench.ColTrafficDets] {
		pw.byID[p.ID] = p
		pw.knnIDs = append(pw.knnIDs, p.ID)
	}
	pw.q4Pairs, pw.q4N = map[string][]pair{}, map[string]int{}
	var all []float64
	for _, l := range q4Labels {
		ps := filterLabel(pw.snaps[bench.ColTrafficDets], l)
		pw.q4N[l] = len(ps)
		pw.q4Pairs[l] = pairsOf(ps, "emb")
		for _, pr := range pw.q4Pairs[l] {
			all = append(all, pr.d)
		}
	}
	sort.Float64s(all)
	for _, pr := range pairsOf(pw.snaps[bench.ColPCImages], "ghist") {
		pw.ghPairs = append(pw.ghPairs, pr.d)
	}
	pw.q4Eps = nudge(grid(0.10, 0.0001, 1000), all)
	pw.ghist = nudge(grid(0.04, 0.00005, 1000), pw.ghPairs)

	rng := rand.New(rand.NewSource(pw.seed))
	pw.starts = make([]int, 4000)
	for i := range pw.starts {
		pw.starts[i] = rng.Intn(sweepFeedFrames - sweepFrames)
	}
	list := func(n int) *variantList {
		return &variantList{n: n, hot: min(hotHead, n), perm: rng.Perm(n)}
	}
	pw.lists = map[string]*variantList{
		"filter":  list(len(filterCols) * len(detLabels)),
		"top1":    list(len(pw.words)),
		"q4":      list(len(q4Labels) * len(pw.q4Eps)),
		"simjoin": list(len(pw.ghist)),
		"knn":     list(len(pw.knnIDs)),
		"ocr":     list(len(pw.starts)),
		// Detect variants are (window, label) pairs in window order, so
		// consecutive fresh draws take one window with both labels and
		// every other fresh sweep finds its frames in the UDF memo.
		"detect": {n: 2 * len(pw.starts), hot: hotHead, perm: make([]int, 2*len(pw.starts))},
	}
	for i := range pw.lists["detect"].perm {
		pw.lists["detect"].perm[i] = i
	}
	return nil
}

// grid returns n values from lo in steps of step.
func grid(lo, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

type pair struct {
	i, j int
	d    float64
}

// pairsOf returns every pair of ps with its field distance, ascending.
func pairsOf(ps []*core.Patch, field string) []pair {
	var out []pair
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			out = append(out, pair{i, j, dist(ps[i].Meta[field].V, ps[j].Meta[field].V)})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].d < out[b].d })
	return out
}

// nudge moves each threshold off any pair distance it nearly equals, so
// float32 distance kernels and the float64 oracle agree on every pair.
// dists must be sorted.
func nudge(eps, dists []float64) []float64 {
	out := make([]float64, len(eps))
	for i, e := range eps {
		for {
			j := sort.SearchFloat64s(dists, e*(1-1e-4))
			if j == len(dists) || dists[j] > e*(1+1e-4) {
				break
			}
			e *= 1 + 2e-4
		}
		out[i] = e
	}
	return out
}

func filterLabel(ps []*core.Patch, label string) []*core.Patch {
	var out []*core.Patch
	for _, p := range ps {
		if p.Meta["label"].S == label {
			out = append(out, p)
		}
	}
	return out
}

// paperRand is one client's draw state: its place in the shape cycle, a
// Zipf sampler over each list's hot head, and the client's own cursor
// into each list's fresh tail (client i owns the i-th of the tail's
// equal parts).
type paperRand struct {
	n      int
	rng    *rand.Rand
	zipfs  map[string]*rand.Zipf
	cursor map[string]int
	end    map[string]int
}

func (pw *paperWorkload) newRand(client int) *paperRand {
	rng := rand.New(rand.NewSource(pw.seed*7919 + int64(client)))
	pr := &paperRand{n: client, rng: rng, zipfs: map[string]*rand.Zipf{}, cursor: map[string]int{}, end: map[string]int{}}
	for k, l := range pw.lists {
		pr.zipfs[k] = rand.NewZipf(rng, zipfS, 1, uint64(l.hot-1))
		part := (l.n - l.hot) / pw.clients
		pr.cursor[k] = l.hot + client*part
		pr.end[k] = pr.cursor[k] + part
	}
	return pr
}

// draw returns a variant of list k.
func (pw *paperWorkload) draw(pr *paperRand, k string) int {
	l := pw.lists[k]
	if pr.cursor[k] < pr.end[k] && pr.rng.Float64() < freshProb {
		pr.cursor[k]++
		return l.perm[pr.cursor[k]-1]
	}
	return l.perm[pr.zipfs[k].Uint64()]
}

func (pw *paperWorkload) next(pr *paperRand) (string, service.Request) {
	shape := paperShapes[pr.n%len(paperShapes)]
	pr.n++
	switch shape {
	case "filter_idx", "filter_scan":
		v := pw.draw(pr, "filter")
		return shape, service.Request{Collection: filterCols[v/len(detLabels)],
			Filter: &service.FilterSpec{Field: "label", Str: str(detLabels[v%len(detLabels)]), UseIndex: shape == "filter_idx"}}
	case "top1":
		w := pw.words[pw.draw(pr, "top1")]
		return shape, service.Request{Collection: bench.ColPCWords,
			Filter: &service.FilterSpec{Field: "text", Str: str(w)}, OrderBy: "frameno", Limit: 1}
	case "q4_distinct":
		v := pw.draw(pr, "q4")
		return shape, service.Request{Collection: bench.ColTrafficDets,
			Filter:   &service.FilterSpec{Field: "label", Str: str(q4Labels[v%len(q4Labels)])},
			SimJoin:  &service.SimJoinSpec{Field: "emb", Eps: pw.q4Eps[v/len(q4Labels)], MinCluster: 2},
			Distinct: true}
	case "simjoin_idx":
		return shape, service.Request{Collection: bench.ColPCImages,
			SimJoin: &service.SimJoinSpec{Field: "ghist", Eps: pw.ghist[pw.draw(pr, "simjoin")], UseIndex: true}}
	case "knn":
		return shape, service.Request{Collection: bench.ColTrafficDets,
			KNN: &service.KNNSpec{Field: "emb", K: 10, SourceID: uint64(pw.knnIDs[pw.draw(pr, "knn")])}}
	case "infer_detect":
		v := pw.draw(pr, "detect")
		f := pw.starts[v/2]
		return shape, service.Request{Infer: &service.InferSpec{Source: "trafficcam", From: f, To: f + sweepFrames,
			UDF: "detect", Label: q4Labels[v%2]}}
	default:
		f := pw.starts[pw.draw(pr, "ocr")]
		return shape, service.Request{Infer: &service.InferSpec{Source: "trafficcam", From: f, To: f + sweepFrames, UDF: "ocr"}}
	}
}

// setupProbe sweeps the detector over frame 0: its oracle is a model
// call, so it needs nothing from the database being built.
func (pw *paperWorkload) setupProbe() (service.Request, func(*service.Response) error) {
	req := service.Request{NoCache: true, Infer: &service.InferSpec{Source: "trafficcam", From: 0, To: 1, UDF: "detect"}}
	img, _ := pw.traffic.Render(0)
	want := len(pw.det.Detect(img))
	return req, func(resp *service.Response) error {
		if resp.Value != want {
			return fmt.Errorf("setup probe: %d detections, want %d", resp.Value, want)
		}
		return nil
	}
}

// maxSampledWindows bounds how many distinct sweep windows per UDF the
// oracle re-runs through the models.
const maxSampledWindows = 24

func (pw *paperWorkload) check(rec *record) (float64, error) {
	req, resp := rec.req, rec.resp
	switch rec.shape {
	case "filter_idx", "filter_scan":
		if want := len(filterLabel(pw.snaps[req.Collection], *req.Filter.Str)); resp.Value != want {
			return -1, fmt.Errorf("count %d, want %d", resp.Value, want)
		}
	case "top1":
		return -1, pw.checkTop1(*req.Filter.Str, resp)
	case "q4_distinct":
		if want := pw.q4Clusters(*req.Filter.Str, req.SimJoin.Eps); resp.Value != want {
			return -1, fmt.Errorf("q4 clusters %d, want %d", resp.Value, want)
		}
	case "simjoin_idx":
		if want := pw.ghistPairs(req.SimJoin.Eps); resp.Value != want {
			return -1, fmt.Errorf("ghist pairs %d, want %d", resp.Value, want)
		}
	case "knn":
		return pw.checkKNN(req.KNN, resp)
	case "infer_detect", "infer_ocr":
		want, ok := pw.sweep(req.Infer)
		if ok && resp.Value != want {
			return -1, fmt.Errorf("sweep %s[%d:%d) counted %d, oracle %d", req.Infer.UDF, req.Infer.From, req.Infer.To, resp.Value, want)
		}
	default:
		return -1, fmt.Errorf("unknown shape %s", rec.shape)
	}
	return -1, nil
}

func (pw *paperWorkload) checkTop1(word string, resp *service.Response) error {
	n, first := 0, math.Inf(1)
	for _, p := range pw.snaps[bench.ColPCWords] {
		if p.Meta["text"].S == word {
			n++
			first = math.Min(first, float64(p.Meta["frameno"].I))
		}
	}
	if resp.Value != n || len(resp.Rows) != 1 {
		return fmt.Errorf("top1 %q: count %d rows %d, want %d and 1", word, resp.Value, len(resp.Rows), n)
	}
	if r := resp.Rows[0]; r["text"] != word || r["frameno"] != first {
		return fmt.Errorf("top1 %q: row %v, want frameno %g", word, r, first)
	}
	return nil
}

// q4Clusters counts the identity clusters of at least two rows among
// the label's detections, joining every pair within eps.
func (pw *paperWorkload) q4Clusters(label string, eps float64) int {
	key := fmt.Sprintf("%s/%g", label, eps)
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if v, ok := pw.q4[key]; ok {
		return v
	}
	pairs := pw.q4Pairs[label]
	parent := make([]int, pw.q4N[label])
	size := make([]int, len(parent))
	for i := range parent {
		parent[i], size[i] = i, 1
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	n := 0 // clusters of size >= 2
	for _, pr := range pairs {
		if pr.d > eps {
			break
		}
		a, b := find(pr.i), find(pr.j)
		if a == b {
			continue
		}
		if size[a] >= 2 {
			n--
		}
		if size[b] >= 2 {
			n--
		}
		parent[a] = b
		size[b] += size[a]
		n++
	}
	pw.q4[key] = n
	return n
}

func (pw *paperWorkload) ghistPairs(eps float64) int {
	return sort.Search(len(pw.ghPairs), func(i int) bool { return pw.ghPairs[i] > eps })
}

func (pw *paperWorkload) checkKNN(spec *service.KNNSpec, resp *service.Response) (float64, error) {
	src := pw.byID[core.PatchID(spec.SourceID)]
	q := src.Meta["emb"].V
	var ds []float64
	for _, p := range pw.snaps[bench.ColTrafficDets] {
		if p.ID != src.ID {
			ds = append(ds, dist(p.Meta["emb"].V, q))
		}
	}
	sort.Float64s(ds)
	kth := ds[min(spec.K, len(ds))-1]
	if len(resp.Rows) != min(spec.K, len(ds)) {
		return -1, fmt.Errorf("knn returned %d rows", len(resp.Rows))
	}
	hits := 0
	for _, m := range resp.Rows {
		id, _ := m["_id"].(float64)
		p, ok := pw.byID[core.PatchID(id)]
		if !ok || p.ID == src.ID {
			return -1, fmt.Errorf("knn row id %v is not a neighbour candidate", m["_id"])
		}
		if m["frameno"] != float64(p.Meta["frameno"].I) || m["label"] != p.Meta["label"].S {
			return -1, fmt.Errorf("knn row %d metadata differs from the stored patch", p.ID)
		}
		d := dist(p.Meta["emb"].V, q)
		if got, _ := m["_dist"].(float64); math.Abs(got-d) > 1e-5*(1+d) {
			return -1, fmt.Errorf("knn row %d: _dist %g, oracle %g", p.ID, got, d)
		}
		if d <= kth*(1+1e-9) {
			hits++
		}
	}
	return float64(hits) / float64(len(resp.Rows)), nil
}

// sweep re-runs an inference window through fresh, un-memoised models,
// for at most maxSampledWindows distinct windows per UDF; ok is false
// for windows past the sample.
func (pw *paperWorkload) sweep(in *service.InferSpec) (int, bool) {
	key := fmt.Sprintf("%s/%s/%d", in.UDF, in.Label, in.From)
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if !pw.sampled[key] {
		if pw.nSample[in.UDF] >= maxSampledWindows {
			return 0, false
		}
		pw.nSample[in.UDF]++
		pw.sampled[key] = true
	}
	count := 0
	for f := in.From; f < in.To; f++ {
		switch in.UDF {
		case "detect":
			labels, ok := pw.frames[f]
			if !ok {
				img, _ := pw.traffic.Render(f)
				for _, d := range pw.det.Detect(img) {
					labels = append(labels, d.Class.String())
				}
				pw.frames[f] = labels
			}
			for _, l := range labels {
				if in.Label == "" || l == in.Label {
					count++
				}
			}
		case "ocr":
			n, ok := pw.ocrN[f]
			if !ok {
				img, _ := pw.traffic.Render(f)
				n = len(pw.ocr.Recognize(img))
				pw.ocrN[f] = n
			}
			count += n
		}
	}
	return count, true
}
