package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"repro/internal/durable"
)

// Snapshot is a registry's full state as plain data: the JSON schema
// shared by the persisted metrics file, `hdfscli stats -json` and the
// live HTTP endpoint.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Traces     map[string][]Event           `json:"traces,omitempty"`
}

// mergeTraceCap bounds a merged trace: persisted files keep the most
// recent window, like the in-memory rings they came from.
const mergeTraceCap = DefaultTraceCap

// Merge folds another snapshot into this one: counters and histograms
// accumulate, gauges take the other's (newer) level, traces
// concatenate o's events after s's and keep the newest mergeTraceCap,
// resequenced so Seq stays strictly increasing. Merging a fresh
// process's snapshot into the persisted one is how metrics survive
// one-shot CLI invocations.
func (s *Snapshot) Merge(o Snapshot) {
	for name, v := range o.Counters {
		if s.Counters == nil {
			s.Counters = map[string]int64{}
		}
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		if s.Gauges == nil {
			s.Gauges = map[string]float64{}
		}
		s.Gauges[name] = v
	}
	for name, h := range o.Histograms {
		if s.Histograms == nil {
			s.Histograms = map[string]HistogramSnapshot{}
		}
		merged := s.Histograms[name]
		merged.Merge(h)
		s.Histograms[name] = merged
	}
	for name, events := range o.Traces {
		if s.Traces == nil {
			s.Traces = map[string][]Event{}
		}
		all := append(s.Traces[name], events...)
		if len(all) > mergeTraceCap {
			all = all[len(all)-mergeTraceCap:]
		}
		for i := range all {
			all[i].Seq = uint64(i + 1)
		}
		s.Traces[name] = all
	}
}

// ReadSnapshotFile loads a persisted snapshot; a missing file is an
// empty snapshot, not an error.
func ReadSnapshotFile(path string) (Snapshot, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Snapshot{}, nil
	}
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: corrupt metrics file %s: %w", path, err)
	}
	return s, nil
}

// WriteSnapshotFile persists a snapshot as indented JSON, atomically
// (durable.WriteFile): every one-shot CLI command rewrites this file on
// its way out, and a torn one would fail every later command's merge.
func WriteSnapshotFile(path string, s Snapshot) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFile(path, raw)
}

// WriteText renders the snapshot human-readably: counters and gauges
// one per line, histograms with count/mean/p50/p99/p999/max (latency
// histograms, named *_ns, render in milliseconds), and each trace's
// retained events oldest first. Keys print sorted so output is diffable.
func (s Snapshot) WriteText(w io.Writer) {
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, name := range slices.Sorted(maps.Keys(s.Counters)) {
			fmt.Fprintf(w, "  %-40s %12d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, name := range slices.Sorted(maps.Keys(s.Gauges)) {
			fmt.Fprintf(w, "  %-40s %12.3f\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:                                     count       mean        p50        p99       p999        max")
		for _, name := range slices.Sorted(maps.Keys(s.Histograms)) {
			h := s.Histograms[name]
			scale, unit := 1.0, ""
			if len(name) > 3 && name[len(name)-3:] == "_ns" {
				scale, unit = 1e6, "ms"
			}
			fmt.Fprintf(w, "  %-40s %10d %10.2f %10.2f %10.2f %10.2f %10.2f %s\n",
				name, h.Count, h.Mean()/scale,
				float64(h.Quantile(0.50))/scale, float64(h.Quantile(0.99))/scale,
				float64(h.Quantile(0.999))/scale, float64(h.Max)/scale, unit)
		}
	}
	if len(s.Traces) > 0 {
		for _, name := range slices.Sorted(maps.Keys(s.Traces)) {
			fmt.Fprintf(w, "trace %s (%d events):\n", name, len(s.Traces[name]))
			for _, e := range s.Traces[name] {
				target := e.Name
				if target != "" && e.Ext >= 0 {
					target = fmt.Sprintf("%s[x%d]", e.Name, e.Ext)
				}
				fmt.Fprintf(w, "  #%-5d %-16s %-24s %s\n", e.Seq, e.Type, target, e.Detail)
			}
		}
	}
}
