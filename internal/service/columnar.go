package service

// Columnar execution glue: the service-side bridge between the scatter
// fragments' non-indexed filter and order-by stages and core's
// vectorized block-at-a-time scan engine, plus the row-scan fallback
// for fields the engine cannot project.

import (
	"context"

	"repro/internal/core"
)

// columnSelection carries a columnar filter stage's outcome forward so
// the order-by stage can stay columnar: the store, the matching rows as
// an ascending selection list, and their materialized patches. The scan
// record (blocks visited, zone-pruned, rows actually compared) and the
// store's build/extend outcome ride along for trace annotation.
type columnSelection struct {
	cs      *core.ColumnStore
	sel     []int32
	rows    []*core.Patch
	scan    core.ScanStats
	colInfo core.ColumnsInfo
}

// columnFilter evaluates the non-indexed filter — equality, or the
// half-open numeric range lo <= field < hi (core.FilterRange semantics,
// matching the row predicate under numeric widening) — over col's
// columnar projection, clipped to the first n rows (the query's
// snapshot length — the cached store may already reflect rows appended
// after this query's snapshot was taken; snapshot prefixes are stable,
// so clipping by row index is exact). It returns nil when the field has
// no column and the caller must run the row scan.
func columnFilter(col *core.Collection, f *FilterSpec, v core.Value, n int) *columnSelection {
	cs, info, err := col.ColumnsWithInfo()
	if err != nil {
		return nil
	}
	var (
		sel []int32
		st  core.ScanStats
		ok  bool
	)
	if f.isRange() {
		lo, hi := f.bounds()
		sel, st, ok = cs.FilterRangeStats(f.Field, lo, hi)
	} else {
		sel, st, ok = cs.FilterEqStats(f.Field, v)
	}
	if !ok {
		return nil
	}
	csel := clipSelection(cs, sel, n)
	csel.scan, csel.colInfo = st, info
	return csel
}

// rowFilter is the row-scan fallback for fields the column store cannot
// project: equality under Value.Equal, or a range under
// core.FieldRange semantics (missing fields never match, non-numerics
// widen to NaN and fail both bounds). It checks ctx every ctxCheckRows
// rows.
func rowFilter(ctx context.Context, snap []*core.Patch, f *FilterSpec, v core.Value) ([]*core.Patch, error) {
	match := v.Equal
	if f.isRange() {
		lo, hi := f.bounds()
		match = func(mv core.Value) bool {
			fv := mv.AsFloat()
			return fv >= lo && fv < hi
		}
	}
	filtered := make([]*core.Patch, 0, len(snap)/4)
	for k, p := range snap {
		if k%ctxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if mv, ok := p.Meta[f.Field]; ok && match(mv) {
			filtered = append(filtered, p)
		}
	}
	return filtered, nil
}

// clipSelection trims a selection list to the query's snapshot length
// and materializes it (the cached store may already reflect rows
// appended after this query's snapshot; prefixes are stable, so
// clipping by row index is exact).
func clipSelection(cs *core.ColumnStore, sel []int32, n int) *columnSelection {
	for len(sel) > 0 && int(sel[len(sel)-1]) >= n {
		sel = sel[:len(sel)-1]
	}
	if sel == nil {
		sel = []int32{}
	}
	return &columnSelection{cs: cs, sel: sel, rows: cs.Materialize(sel)}
}

// topKRows computes the ordered top-k of filtered, byte-identical to a
// stable sort + trim (sortRows semantics: ties in input order, missing
// fields order as the zero Value). It prefers the columnar heap — over
// the filter stage's selection when there was one, or over the whole
// snapshot for unfiltered queries (ocol non-nil) — and falls back to
// the bounded-heap row top-k, which still avoids sorting rows that can
// never reach the limit. The returned stats record the columnar top-k's
// segment work (zero on the row path).
func topKRows(ocol *core.Collection, csel *columnSelection, filtered []*core.Patch, field string, desc bool, k, snapLen int) ([]*core.Patch, core.ScanStats) {
	if csel != nil {
		if top, st, ok := csel.cs.TopKStats(csel.sel, field, desc, k); ok {
			return csel.cs.Materialize(top), st
		}
	} else if ocol != nil {
		// Unfiltered: the store must cover exactly this query's snapshot
		// for nil-selection (all rows) to be correct.
		if cs, err := ocol.Columns(); err == nil && cs.Len() == snapLen {
			if top, st, ok := cs.TopKStats(nil, field, desc, k); ok {
				return cs.Materialize(top), st
			}
		}
	}
	return core.TopKPatches(filtered, field, desc, k), core.ScanStats{}
}
