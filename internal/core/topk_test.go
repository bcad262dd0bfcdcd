package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Zone-ordered int top-k: on random int columns — growing, duplicate-
// heavy, null-heavy, whole-segment nulls, full int64 range — TopK must
// return exactly the stable sort's first k rows (and the row-path heap's),
// for every direction, k and selection, in memory and after every
// spilled segment is evicted.

var topKIntFields = []string{"grow", "dups", "blocky", "wide", "lateval", "ties"}

const topKRows = 5*ColumnBlockSize + 300

func topKIntPatch(rng *rand.Rand, i int) *Patch {
	p := &Patch{Ref: Ref{Source: "topk", Frame: uint64(i)}, Meta: Metadata{}}
	if rng.Intn(20) != 0 {
		p.Meta["grow"] = IntV(int64(i) + int64(rng.Intn(50))) // rank-like
	}
	if rng.Intn(5) != 0 {
		p.Meta["dups"] = IntV(int64(rng.Intn(5)))
	}
	if (i/ColumnBlockSize)%3 != 1 { // every third segment all null
		p.Meta["blocky"] = IntV(rng.Int63n(2000) - 1000)
	}
	switch rng.Intn(40) {
	case 0:
		p.Meta["wide"] = IntV(math.MinInt64)
	case 1:
		p.Meta["wide"] = IntV(math.MaxInt64)
	default:
		p.Meta["wide"] = IntV(int64(rng.Uint64()))
	}
	if i >= 2*ColumnBlockSize { // all-null prefix segments
		p.Meta["lateval"] = IntV(int64(rng.Intn(300)))
	}
	// Mostly 3, with one outlier in some segments: a top-k that starts
	// at an outlier's segment finds its kth value (3) equal to the bound
	// of earlier segments, whose 3s rank first by row and must be read.
	si, j := i/ColumnBlockSize, i%ColumnBlockSize
	switch {
	case si%2 == 1 && j == 7:
		p.Meta["ties"] = IntV(int64(100 + si))
	case si%3 == 2 && j == 9:
		p.Meta["ties"] = IntV(int64(-100 - si))
	default:
		p.Meta["ties"] = IntV(3)
	}
	return p
}

// topKIntCollection appends the random rows to a collection whose sealed
// segments spill under a budget far below the column footprint.
func topKIntCollection(t *testing.T) (*ColumnStore, *SegmentCache) {
	t.Helper()
	db := openDB(t)
	sc := NewSegmentCache(16 << 10)
	db.SetSegmentCache(sc)
	col, err := db.CreateCollection("topk.ints", Schema{Data: Pixels(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < topKRows; i++ {
		if err := col.Append(topKIntPatch(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := col.Columns()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range topKIntFields {
		if c, ok := cs.Column(f); !ok || c.Kind() != KindInt {
			t.Fatalf("field %s did not project as an int column", f)
		}
	}
	return cs, sc
}

func TestZoneOrderedTopKMatchesStableSort(t *testing.T) {
	cs, sc := topKIntCollection(t)
	mem := NewColumnStore(cs.Patches(), cs.Version())
	rng := rand.New(rand.NewSource(12))
	subset := func(p float64) []int32 {
		sel := []int32{}
		for i := 0; i < topKRows; i++ {
			if rng.Float64() < p {
				sel = append(sel, int32(i))
			}
		}
		return sel
	}
	sels := map[string][]int32{"all": nil, "third": subset(0.3), "sparse": subset(0.01), "empty": {}}
	for _, field := range topKIntFields {
		for _, desc := range []bool{false, true} {
			for _, k := range []int{1, 10, ColumnBlockSize + 1, topKRows + 7} {
				for name, sel := range sels {
					cands := cs.Patches()
					if sel != nil {
						cands = cs.Materialize(sel)
					}
					want := referenceTopK(cands, field, desc, k)
					if heap := TopKPatches(cands, field, desc, k); !reflect.DeepEqual(heap, want) && len(want) > 0 {
						t.Fatalf("%s desc=%v k=%d %s: row heap disagrees with the stable sort", field, desc, k, name)
					}
					for _, store := range []struct {
						name  string
						cs    *ColumnStore
						evict bool
					}{{"in-memory", mem, false}, {"tiered", cs, false}, {"evicted", cs, true}} {
						if store.evict {
							sc.EvictAll()
						}
						top, ok := store.cs.TopK(sel, field, desc, k)
						if !ok {
							t.Fatalf("%s lost its column", field)
						}
						if got := store.cs.Materialize(top); !reflect.DeepEqual(got, want) && len(want)+len(got) > 0 {
							t.Fatalf("%s desc=%v k=%d sel=%s %s: %d rows diverge from the stable sort",
								field, desc, k, name, store.name, len(got))
						}
					}
				}
			}
		}
	}
}

// TestZoneOrderedTopKSkipsSegments: on a column growing with row index
// a descending top-10 faults in only the last segment, every other
// candidate segment is skipped, and the stats account for each.
func TestZoneOrderedTopKSkipsSegments(t *testing.T) {
	cs, sc := topKIntCollection(t)
	sealed := make([]int32, 5*ColumnBlockSize) // every spilled row, no tail
	for i := range sealed {
		sealed[i] = int32(i)
	}
	sc.EvictAll()
	before := sc.Stats()
	top, st, ok := cs.TopKStats(sealed, "grow", true, 10)
	if !ok || len(top) != 10 {
		t.Fatalf("TopKStats: %d rows, ok=%v", len(top), ok)
	}
	if st.Blocks != 5 || st.SegLoads != 1 || st.SegHits != 0 || st.TopKSkipped != 4 {
		t.Fatalf("desc top-10 over a growing column: %+v, want 1 load and 4 segments skipped", st)
	}
	if loads := sc.Stats().Loads - before.Loads; loads != 1 {
		t.Fatalf("cache counted %d loads, want 1", loads)
	}
	_, again, _ := cs.TopKStats(sealed, "grow", true, 10)
	if again.SegLoads != 0 || again.SegHits != 1 || again.TopKSkipped != 4 {
		t.Fatalf("repeat top-k should hit the segment just loaded: %+v", again)
	}
	// Unfiltered, the answer sits in the unsealed tail segment: one
	// visit, neither a load nor a hit (the tail never spills).
	if _, all, _ := cs.TopKStats(nil, "grow", true, 10); all.Blocks != 6 || all.TopKSkipped != 5 || all.SegLoads != 0 {
		t.Fatalf("unfiltered desc top-10: %+v", all)
	}
	// Ascending on a column with nulls in every segment cannot skip: the
	// null rows order first and no bound can prove a segment worse.
	if _, asc, _ := cs.TopKStats(nil, "dups", false, 10); asc.TopKSkipped != 0 {
		t.Fatalf("asc top-k over null-bearing segments skipped %d", asc.TopKSkipped)
	}
	// Float columns keep the full-pin path: nothing skipped.
	ps := make([]*Patch, 3*ColumnBlockSize)
	for i := range ps {
		ps[i] = columnPatch(i)
	}
	fcs := NewColumnStore(ps, 1)
	if _, fst, _ := fcs.TopKStats(nil, "score", true, 5); fst.TopKSkipped != 0 || fst.Blocks != 3 {
		t.Fatalf("float top-k: %+v", fst)
	}
}

// TestSegmentDecodeOwnsItsArrays: segments are decoded out of a pooled
// read buffer, so a decoded segment must not change when that buffer is
// overwritten — neither the blob it was decoded from nor any buffer the
// pool hands out afterwards.
func TestSegmentDecodeOwnsItsArrays(t *testing.T) {
	rows := 700
	d := &segData{nulls: make([]uint64, (rows+63)/64)}
	for _, kind := range []ValueKind{KindInt, KindFloat, KindStr} {
		d.ints, d.floats, d.codes = nil, nil, nil
		d.alloc(kind, rows)
		for j := 0; j < rows; j++ {
			if j%7 != 0 {
				d.setPresent(j)
			}
			switch kind {
			case KindInt:
				d.ints[j] = int64(j * 3)
			case KindFloat:
				d.floats[j] = float64(j) / 4
			case KindStr:
				d.codes[j] = uint32(j % 11)
			}
		}
		blob := encodeSegData(kind, d)
		got, err := decodeSegData(kind, rows, blob)
		if err != nil {
			t.Fatal(err)
		}
		want := *got
		want.ints = append([]int64(nil), got.ints...)
		want.floats = append([]float64(nil), got.floats...)
		want.codes = append([]uint32(nil), got.codes...)
		want.nulls = append([]uint64(nil), got.nulls...)
		for i := range blob {
			blob[i] = 0xFF
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("kind %d: decoded segment changed when its blob was overwritten", kind)
		}
	}

	cs, sc := topKIntCollection(t)
	col, _ := cs.Column("wide")
	sc.EvictAll()
	first := col.segRows(col.segs[0], nil)
	snapshot := append([]int64(nil), first.ints...)
	for _, sg := range col.segs[1:] {
		col.segRows(sg, nil) // later faults reuse the pooled buffer
	}
	for i := 0; i < 4; i++ {
		buf := segReadBufs.Get().(*[]byte)
		b := (*buf)[:cap(*buf)]
		for j := range b {
			b[j] = 0xA5
		}
		defer segReadBufs.Put(buf)
	}
	if !reflect.DeepEqual(first.ints, snapshot) {
		t.Fatal("a faulted-in segment aliases the pooled read buffer")
	}
}
