package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"sort"
	"strconv"
)

// Steadiness mode: run one workload k times on one seed, each in its own
// process exactly as a single benchmark run, and print every end-to-end
// metric's median, quartiles and spread ((Q3-Q1)/median) against the
// bound BENCHMARK.json fixes. The seed fixes every row and request, so
// the spread is run-to-run noise; run it again with a held-out seed to
// see that the workload is not tuned to one input. Quartiles follow
// Python's statistics.quantiles(values, n=4).

type runLine struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func steadyMain(w workloadSpec, seed int64, seconds float64, k int) int {
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	bounds := readBounds("BENCHMARK.json")
	values := map[string][]float64{}
	incorrect := 0
	for i := 0; i < k; i++ {
		cmd := osexec.Command(bin, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d: %v\n", i+1, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var rl runLine
		if err := json.Unmarshal(lines[len(lines)-1], &rl); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d: bad result line: %v\n", i+1, err)
			return 1
		}
		if !rl.Correct {
			incorrect++
		}
		fmt.Printf("run %d: correct=%v", i+1, rl.Correct)
		for _, m := range e2eMetrics {
			v := rl.Metrics[m.name].Value
			values[m.name] = append(values[m.name], v)
			fmt.Printf(" %s=%.4g", m.name, v)
		}
		fmt.Println()
	}
	fmt.Printf("%s: %d runs of seed %d, %d incorrect\n", w.name, k, seed, incorrect)
	fmt.Printf("  %-22s %12s %12s %12s %8s %7s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, m := range e2eMetrics {
		vs := values[m.name]
		q := quartiles(vs)
		med := q[1] // the exclusive method's middle quartile is the median
		spread := ratio(q[2]-q[0], med)
		b, ok := bounds[m.name]
		verdict := "no bound"
		switch {
		case !ok:
		case spread <= b/3:
			verdict = "steady (< bound/3)"
		case spread <= b:
			verdict = "within bound"
		default:
			verdict = "TOO WIDE"
		}
		fmt.Printf("  %-22s %12.5g %12.5g %12.5g %8.4f %7.3f  %s\n", m.name, med, q[0], q[2], spread, b, verdict)
	}
	if incorrect > 0 {
		return 1
	}
	return 0
}

// quartiles matches Python's statistics.quantiles(vs, n=4) with the
// default exclusive method.
func quartiles(vs []float64) [3]float64 {
	var out [3]float64
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			out = [3]float64{s[0], s[0], s[0]}
		}
		return out
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// readBounds reads each end-to-end metric's bound from BENCHMARK.json in
// the working directory (none when absent).
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &b) == nil {
		for _, m := range b.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}
