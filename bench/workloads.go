package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// mix is the share of each op kind in a workload's traffic, indexed by
// opKind; the shares sum to 1.
type mix [nKinds]float64

// workload is one store geometry plus the traffic driven at it. Every
// number here is part of the benchmark's definition. The open-loop
// rates are hard-coded and never derived at run time, so two commits
// are always offered the same load; they are about a sixth of this
// machine's closed-loop throughput, because at 40 % the queue for the
// nproc connections, not the server, decided the read medians.
type workload struct {
	name string
	// inProcess workloads call the shard's store directly from one
	// caller in a closed loop; the others drive a child hdfscli serve
	// over loopback HTTP.
	inProcess bool

	shards, blockSize, extentBlocks int
	code                            string
	// names × fileBytes is the preloaded working set; the hot
	// lowest-index names are moved to pentagon at set-up.
	names, fileBytes, hot int
	rangeBytes            int

	mix mix
	// zipfS > 1 skews key choice toward the low indices; 0 is uniform.
	zipfS float64
	// rate is the open-loop arrival rate, ops/s.
	rate float64
	// lossCycles > 0 runs that many kill → degraded → repair cycles
	// inside the open-loop phase, and the saturation phase degraded.
	lossCycles int
	// light is the smoke setting: a fifth of the warm-up, of the probes
	// and of the ladder's ops.
	light bool
}

const hotCode = "pentagon"

var workloads = []workload{
	{
		name:   "hot_read",
		shards: 4, blockSize: 16 << 10, code: "rs-14-10",
		names: 256, fileBytes: 320 << 10, hot: 26, rangeBytes: 64 << 10,
		mix: mix{opGet: 0.7, opRange: 0.3}, zipfS: 1.1, rate: 300,
	},
	{
		name:   "small_churn",
		shards: 4, blockSize: 16 << 10, code: "rs-9-6",
		names: 800, fileBytes: 32 << 10, hot: 80, rangeBytes: 4 << 10,
		mix: mix{opGet: 0.3, opRange: 0.2, opPut: 0.25, opDelete: 0.25}, rate: 150,
	},
	{
		name:   "node_loss",
		shards: 4, blockSize: 16 << 10, code: "rs-14-10",
		names: 256, fileBytes: 320 << 10, hot: 26, rangeBytes: 64 << 10,
		mix: mix{opGet: 0.7, opRange: 0.3}, zipfS: 1.1, rate: 200, lossCycles: 4,
	},
	{
		name: "bulk_tier", inProcess: true,
		shards: 1, blockSize: 1 << 20, extentBlocks: 20, code: "rs-14-10",
		names: 4, fileBytes: 30 << 20, rangeBytes: 1 << 20,
		mix: mix{opGet: 0.5, opRange: 0.5},
	},
}

// smoke shrinks a workload so one run takes about two seconds: same
// layers, same op mix, a working set small enough to build in
// milliseconds.
func (w workload) smoke() workload {
	w.light = true
	if w.inProcess {
		w.names, w.fileBytes = 2, 12<<20
		w.extentBlocks = 10
		return w
	}
	w.names /= 8
	w.hot /= 8
	w.rate /= 2
	return w
}

// div is what a run divides its fixed counts and warm-up by.
func (w *workload) div() int {
	if w.light {
		return lightDiv
	}
	return 1
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// benchSpec mirrors BENCHMARK.json, the contract the driver reads: the
// bench validates its own output against it so the two cannot drift.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the checkout root,
// the directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or any parent")
		}
		dir = parent
	}
}

func loadSpec(root string) (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(spec.Workloads) != len(workloads) {
		return spec, fmt.Errorf("BENCHMARK.json lists %d workloads, the bench has %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		if sw.Name != workloads[i].name {
			return spec, fmt.Errorf("BENCHMARK.json workload %d is %q, the bench has %q", i, sw.Name, workloads[i].name)
		}
	}
	return spec, nil
}

// checkMetrics reports the first difference between the metric names a
// run produced and the names BENCHMARK.json promises.
func checkMetrics(got map[string]float64, want []metricSpec) error {
	for _, m := range want {
		if _, ok := got[m.Name]; !ok {
			return fmt.Errorf("metric %q is in BENCHMARK.json but was not measured", m.Name)
		}
	}
	if len(got) != len(want) {
		known := map[string]bool{}
		for _, m := range want {
			known[m.Name] = true
		}
		for name := range got {
			if !known[name] {
				return fmt.Errorf("metric %q was measured but is not in BENCHMARK.json", name)
			}
		}
	}
	return nil
}
