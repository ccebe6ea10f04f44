// Command benchjson runs the coding-path benchmarks and records the
// results as JSON, so the performance trajectory of the data plane is
// versioned alongside the code instead of living in scrollback.
//
// It shells out to `go test -bench` with -benchmem, parses the standard
// benchmark output (ns/op, MB/s, B/op, allocs/op plus any custom
// ReportMetric columns), and merges the run into the output file under
// the given label:
//
//	go run ./cmd/benchjson -label after -out BENCH_coding.json
//
// Repeated runs with different labels (e.g. "before" on the parent
// commit, "after" on the working tree) accumulate in one file, which is
// what CI's non-blocking bench job and scripts/bench.sh produce.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// defaultBench selects the coding hot-path benchmarks: the gf256
// kernels, the block checksum, full-file encode, the read paths (the
// 30 MiB multi-extent Get, with and without a read cache, its
// page-cache floor and the reused-buffer ReadAt between them included),
// the transcode cycle (the streaming and parallel tier-move pipelines
// included) and the pooled repair path.
const defaultBench = "MulAddSlice|MulSlice|XorSlice|Checksum$|EncodePentagon$|EncodeHeptagonLocal$|EncodeRS1410$|PreadFloor$|ReadFile$|GetMultiExtentUncached$|GetMultiExtentCached$|ReadAtWhole$|ReadAtUnaligned$|ReadBlockInto$|ReadBlockDegraded$|TranscodeRSToPentagon$|TranscodeRSToHeptagonLocal$|TranscodeStreaming$|TranscodeParallel$|RepairPooled$|DecodePentagonTwoErasures$|DecodeHeptagonLocalThreeErasures$"

var defaultPkgs = []string{".", "./internal/gf256", "./internal/block"}

// Result is one benchmark's parsed output.
type Result struct {
	NsPerOp      float64            `json:"ns_per_op"`
	MBPerS       float64            `json:"mb_per_s,omitempty"`
	BytesPerOp   float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp  float64            `json:"allocs_per_op,omitempty"`
	CustomMetric map[string]float64 `json:"metrics,omitempty"`
}

// Run is one labeled invocation.
type Run struct {
	Timestamp  string            `json:"timestamp"`
	GoVersion  string            `json:"go_version"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// File is the on-disk shape of BENCH_coding.json.
type File struct {
	Note string         `json:"note,omitempty"`
	Runs map[string]Run `json:"runs"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func main() {
	bench := flag.String("bench", defaultBench, "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "1s", "benchtime passed to go test")
	label := flag.String("label", "after", "label for this run in the output file")
	out := flag.String("out", "BENCH_coding.json", "output JSON file (merged if it exists)")
	pkgs := flag.String("pkgs", strings.Join(defaultPkgs, ","), "comma-separated packages to benchmark")
	goarch := flag.String("goarch", "", "GOARCH to build the benchmarks for (cross-runs need -exec)")
	execWith := flag.String("exec", "", "run benchmark binaries through this program (go test -exec), e.g. qemu-aarch64-static for arm64 under emulation")
	flag.Parse()

	results := map[string]Result{}
	for _, pkg := range strings.Split(*pkgs, ",") {
		args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem", "-benchtime", *benchtime}
		if *execWith != "" {
			args = append(args, "-exec", *execWith)
		}
		args = append(args, pkg)
		cmd := exec.Command("go", args...)
		if *goarch != "" {
			cmd.Env = append(os.Environ(), "GOARCH="+*goarch)
		}
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		fmt.Print(string(raw))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", pkg, err)
			os.Exit(1)
		}
		parseInto(results, string(raw))
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines parsed")
		os.Exit(1)
	}

	file := File{Runs: map[string]Run{}}
	if raw, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s exists but is not valid JSON: %v\n", *out, err)
			os.Exit(1)
		}
		if file.Runs == nil {
			file.Runs = map[string]Run{}
		}
	}
	file.Note = "Coding hot-path benchmarks recorded by cmd/benchjson (see scripts/bench.sh). " +
		"Absolute numbers depend on the machine; compare labels from the same host."
	file.Runs[*label] = Run{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  strings.TrimSpace(goVersion()),
		Benchmarks: results,
	}
	raw, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: recorded %d benchmarks under %q in %s\n", len(results), *label, *out)
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return "unknown"
	}
	return string(out)
}

// parseInto extracts benchmark results from go test output. A value
// column is "<number> <unit>"; ns/op, MB/s, B/op and allocs/op map to
// fixed fields, anything else (ReportMetric output) lands in metrics.
func parseInto(results map[string]Result, output string) {
	for _, line := range strings.Split(output, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := m[1]
		fields := strings.Fields(m[2])
		var r Result
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "MB/s":
				r.MBPerS = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.CustomMetric == nil {
					r.CustomMetric = map[string]float64{}
				}
				r.CustomMetric[unit] = v
			}
		}
		results[name] = r
	}
}
