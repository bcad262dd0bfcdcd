package main

import (
	"fmt"
	"time"

	"repro/internal/dataset"
)

// workloadSpec fixes one workload's database and serving topology. The
// server process builds from it; the client process derives requests
// and the oracle from it.
type workloadSpec struct {
	name string
	// shards == 0 serves one unsharded DB through service.New.
	shards, replicas int
	// budget is service.Config.ColumnMemBudget (0: tiering off).
	budget int64
	// baseRows is the generated row count (generated workloads only).
	baseRows int
	// clients is the number of closed-loop query connections.
	clients int
	// appendRate is the open-loop /append rate in batches per second
	// during the window (0: no appender; a closed-loop ingest probe runs
	// after the window instead).
	appendRate int
	// warmup runs the load before the window opens, long enough for
	// paper_mix to cache the hot head of every variant list.
	warmup time.Duration
	paper  bool
}

var workloads = []workloadSpec{
	{name: "paper_mix", paper: true, clients: 2, warmup: 4 * time.Second},
	{name: "scan_spill", shards: 4, replicas: 1, budget: 1 << 20, baseRows: 200_000, clients: 2, warmup: 2 * time.Second},
	{name: "live_ingest", shards: 2, replicas: 2, budget: 1 << 20, baseRows: 50_000, clients: 1, appendRate: 100, warmup: 2 * time.Second},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// paperConfig is dataset.Default() at the serving binary's default
// scale (240 TrafficCam frames, 2 football clips of 30 frames).
func paperConfig() dataset.Config {
	cfg := dataset.Default()
	cfg.TrafficFrames = 240
	cfg.FootballClips = 2
	cfg.FootballClipLen = 30
	return cfg
}

// probeBatches is the size of the closed-loop ingest probe that ends
// workloads without a concurrent appender: enough batches that the
// append p99 has ten samples beyond it several times over.
const probeBatches = 2000
