package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/obs"
)

// Span analysis of a traced run. Each traced response carries the
// server's spans (offsets from the trace start, no parent links); the
// client's round trip encloses them. A span's parent is the innermost
// earlier span whose interval contains it, and its self time is its
// duration minus the union of its children's intervals. Client time
// outside the server trace is the "http" layer; server time inside the
// trace but under no span is unattributed.

type spanStats struct {
	self     map[string]float64      // summed self time per layer, µs
	count    map[string]int          // spans per layer
	durs     map[string]*obs.Summary // span durations per name, ms
	fragMax  obs.Summary             // per scattered query: slowest fragment, ms
	totalUS  float64                 // summed client round trips
	unattrUS float64
}

func analyzeSpans(recs []record) *spanStats {
	st := &spanStats{self: map[string]float64{}, count: map[string]int{}, durs: map[string]*obs.Summary{}}
	for _, rec := range recs {
		if rec.status != http.StatusOK || rec.resp.TraceData == nil {
			continue
		}
		td := rec.resp.TraceData
		rt := us(rec.rt)
		st.totalUS += rt
		st.self["http"] += max(0, rt-td.DurUS)
		st.count["http"]++
		spans := append([]obs.Span(nil), td.Spans...)
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].StartUS != spans[j].StartUS {
				return spans[i].StartUS < spans[j].StartUS
			}
			return spans[i].DurUS > spans[j].DurUS
		})
		children := make([][]obs.Span, len(spans))
		var top []obs.Span
		frag := -1.0
		for i, s := range spans {
			parent := -1
			for j := i - 1; j >= 0; j-- {
				if contains(spans[j], s) {
					parent = j
					break
				}
			}
			if parent >= 0 {
				children[parent] = append(children[parent], s)
			} else {
				top = append(top, s)
			}
			if st.durs[s.Name] == nil {
				st.durs[s.Name] = obs.NewSummary(len(recs))
			}
			st.durs[s.Name].Observe(s.DurUS / 1000)
			if s.Name == "fragment" || s.Name == "knn-fragment" {
				frag = max(frag, s.DurUS/1000)
			}
		}
		for i, s := range spans {
			st.self[s.Name] += max(0, s.DurUS-covered(children[i]))
			st.count[s.Name]++
		}
		st.unattrUS += max(0, td.DurUS-covered(top))
		if frag >= 0 {
			st.fragMax.Observe(frag)
		}
	}
	return st
}

// contains reports whether a's interval holds b's (1µs slack for the
// rounding of microsecond offsets).
func contains(a, b obs.Span) bool {
	return b.StartUS >= a.StartUS-1 && b.StartUS+b.DurUS <= a.StartUS+a.DurUS+1
}

// covered is the length of the union of the spans' intervals.
func covered(ss []obs.Span) float64 {
	if len(ss) == 0 {
		return 0
	}
	iv := make([][2]float64, len(ss))
	for i, s := range ss {
		iv[i] = [2]float64{s.StartUS, s.StartUS + s.DurUS}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, lo, hi := 0.0, iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else {
			hi = max(hi, x[1])
		}
	}
	return total + hi - lo
}

// print writes the per-layer self-time table.
func (st *spanStats) print(out io.Writer) {
	names := make([]string, 0, len(st.self))
	for n := range st.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st.self[names[i]] > st.self[names[j]] })
	fmt.Fprintf(out, "self time by layer over %.1f ms of client round trips:\n", st.totalUS/1000)
	for _, n := range names {
		fmt.Fprintf(out, "  %-14s %7d spans %11.1f ms  %5.1f%%\n", n, st.count[n], st.self[n]/1000, 100*ratio(st.self[n], st.totalUS))
	}
	fmt.Fprintf(out, "  %-14s %19s %11.1f ms  %5.1f%%\n", "(unattributed)", "", st.unattrUS/1000, 100*ratio(st.unattrUS, st.totalUS))
}

// writeSpans writes every traced request's client round trip and server
// spans, one JSON object a line, once the run is over.
func writeSpans(workload string, seed int64, recs []record) error {
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rec := range recs {
		if rec.resp == nil || rec.resp.TraceData == nil {
			continue
		}
		line := struct {
			Shape  string         `json:"shape"`
			SentUS int64          `json:"sent_unix_us"`
			RTUS   float64        `json:"rt_us"`
			Trace  *obs.TraceData `json:"trace"`
		}{rec.shape, rec.sent.UnixMicro(), us(rec.rt), rec.resp.TraceData}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
