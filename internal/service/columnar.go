package service

// Columnar execution glue: the service-side bridge between the request
// pipeline and core's columnar scan engine. Both the unsharded executor
// and the per-shard scatter fragments route their non-indexed filter and
// order-by stages through these helpers, so the two paths stay
// byte-identical (the N=1 golden contract) while sharing the vectorized
// block-at-a-time kernels.

import (
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

// columnFilterEq evaluates the non-indexed equality filter over col's
// columnar projection, clipped to the first n rows (the query's
// snapshot length — the cached store may already reflect rows appended
// after this query's snapshot was taken; snapshot prefixes are stable,
// so clipping by row index is exact). ok is false when the field has no
// column and the caller must run the row scan.
func columnFilterEq(col *core.Collection, field string, v core.Value, n int) (*columnSelection, bool) {
	cs, info, err := col.ColumnsWithInfo()
	if err != nil {
		return nil, false
	}
	sel, st, ok := cs.FilterEqStats(field, v)
	if !ok {
		return nil, false
	}
	csel := clipSelection(cs, sel, n)
	csel.scan, csel.colInfo = st, info
	return csel, true
}

// columnFilterRange is columnFilterEq for the half-open numeric range
// lo <= field < hi (core.FilterRange semantics, matching the row
// predicate core.FieldRange under numeric widening). ok is false when
// the field has no column and the caller must run the row scan.
func columnFilterRange(col *core.Collection, field string, lo, hi float64, n int) (*columnSelection, bool) {
	cs, info, err := col.ColumnsWithInfo()
	if err != nil {
		return nil, false
	}
	sel, st, ok := cs.FilterRangeStats(field, lo, hi)
	if !ok {
		return nil, false
	}
	csel := clipSelection(cs, sel, n)
	csel.scan, csel.colInfo = st, info
	return csel, true
}

// rowFilterRange is the row-scan fallback for a range filter (fields
// the store cannot columnize): core.FieldRange semantics — missing
// fields never match, non-numerics widen to NaN and fail both bounds.
// Shared by the unsharded executor and the scatter fragments so the two
// paths cannot drift (the N=1 byte-identity contract).
func rowFilterRange(snap []*core.Patch, field string, lo, hi float64) []*core.Patch {
	filtered := make([]*core.Patch, 0, len(snap)/4)
	for _, p := range snap {
		if mv, ok := p.Meta[field]; ok {
			if fv := mv.AsFloat(); fv >= lo && fv < hi {
				filtered = append(filtered, p)
			}
		}
	}
	return filtered
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
