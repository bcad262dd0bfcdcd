package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/service"
)

// Generated detection rows: the schema shared by scan_spill, live_ingest
// and the ingest probe of paper_mix. Both the server process (which
// builds the database) and the client process (which keeps the oracle) derive
// every row from (seed, index) alone, so they agree without talking.

const (
	genCol     = "bench.dets"   // generated collection of scan_spill and live_ingest
	ingestCol  = "bench.ingest" // paper_mix's ingest-probe collection
	genLabels  = 16
	genDim     = 32
	genCenters = 64
	batchRows  = 16 // rows per /append batch
)

func genSchema() core.Schema {
	return core.Schema{
		Data: core.Pixels(0, 0),
		Fields: []core.Field{
			{Name: "label", Kind: core.KindStr},
			{Name: "score", Kind: core.KindFloat},
			{Name: "rank", Kind: core.KindInt},
			{Name: "emb", Kind: core.KindVec, VecDim: genDim},
		},
	}
}

// row is one generated detection. Frame is its index in the generated
// sequence and comes back as "_frame" in result rows, so the oracle can
// identify a returned row without knowing server-assigned patch ids.
type row struct {
	Frame uint64
	Label string
	Score float64 // multiple of 1/4096, exact in JSON
	Rank  int64   // the row index: newer rows rank higher
	Emb   []float32
}

func labelName(i int) string { return fmt.Sprintf("l%02d", i) }

// mix is splitmix64: a stateless hash from which every generated value
// is drawn, so row i costs the same no matter how many rows precede it.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// gauss draws a standard normal from two hashes (Box-Muller).
func gauss(h1, h2 uint64) float64 {
	u := unit(h1)
	if u < 1e-300 {
		u = 1e-300
	}
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*unit(h2))
}

// center returns cluster centre c of the seed's embedding space.
func center(seed int64, c int) []float32 {
	v := make([]float32, genDim)
	base := mix(uint64(seed)*0x100000001b3 ^ 0xc3a5c85c97cb3127 ^ uint64(c)<<20)
	for j := range v {
		v[j] = float32(gauss(mix(base+uint64(2*j)), mix(base+uint64(2*j+1))))
	}
	return v
}

// embNear draws a vector around centre c from hash stream h.
func embNear(centers [][]float32, c int, h uint64) []float32 {
	v := make([]float32, genDim)
	for j := range v {
		v[j] = centers[c][j] + float32(0.35*gauss(mix(h+uint64(2*j)), mix(h+uint64(2*j+1))))
	}
	return v
}

// generator derives rows and query vectors for one seed.
type generator struct {
	seed    int64
	centers [][]float32
}

func newGenerator(seed int64) *generator {
	g := &generator{seed: seed, centers: make([][]float32, genCenters)}
	for c := range g.centers {
		g.centers[c] = center(seed, c)
	}
	return g
}

func (g *generator) row(i int) row {
	h := mix(uint64(g.seed)<<32 ^ uint64(i))
	return row{
		Frame: uint64(i),
		Label: labelName(int(mix(h^1) % genLabels)),
		Score: float64(mix(h^2)%4096) / 4096,
		Rank:  int64(i),
		Emb:   embNear(g.centers, int(mix(h^3)%genCenters), mix(h^4)),
	}
}

// queryVec draws a kNN query vector near a random centre.
func (g *generator) queryVec(h uint64) []float32 {
	return embNear(g.centers, int(mix(h^5)%genCenters), mix(h^6))
}

func (r row) patch() *core.Patch {
	return &core.Patch{
		Ref: core.Ref{Source: "gen", Frame: r.Frame},
		Meta: core.Metadata{
			"label": core.StrV(r.Label),
			"score": core.FloatV(r.Score),
			"rank":  core.IntV(r.Rank),
			"emb":   core.VecV(r.Emb),
		},
	}
}

func (r row) spec() service.PatchSpec {
	return service.PatchSpec{
		Source: "gen",
		Frame:  r.Frame,
		Meta: map[string]any{
			"label": r.Label,
			"score": r.Score,
			"rank":  r.Rank,
			"emb":   r.Emb,
		},
	}
}

// dist is the oracle's Euclidean distance, computed in float64
// independently of the served kernels.
func dist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}
