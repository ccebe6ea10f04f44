package hadoopcodes

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestBenchRecordFresh keeps BENCH_coding.json honest against the
// bench harness: the committed record must parse into cmd/benchjson's
// output schema, and every benchmark scripts/bench.sh currently
// selects that exists in the tree must appear in at least one recorded
// run. CI's docs job runs it, so adding a benchmark to the harness
// without re-running scripts/bench.sh (a stale perf record) fails the
// build instead of rotting silently.
func TestBenchRecordFresh(t *testing.T) {
	raw, err := os.ReadFile("BENCH_coding.json")
	if err != nil {
		t.Fatalf("BENCH_coding.json missing (run scripts/bench.sh): %v", err)
	}
	// Mirror of cmd/benchjson's File/Run/Result shape; unknown fields
	// mean the harness and the record have diverged.
	var file struct {
		Note string `json:"note"`
		Runs map[string]struct {
			Timestamp  string `json:"timestamp"`
			GoVersion  string `json:"go_version"`
			Benchmarks map[string]struct {
				NsPerOp      float64            `json:"ns_per_op"`
				MBPerS       float64            `json:"mb_per_s,omitempty"`
				BytesPerOp   float64            `json:"bytes_per_op,omitempty"`
				AllocsPerOp  float64            `json:"allocs_per_op,omitempty"`
				CustomMetric map[string]float64 `json:"metrics,omitempty"`
			} `json:"benchmarks"`
		} `json:"runs"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("BENCH_coding.json does not match cmd/benchjson's schema: %v", err)
	}
	if len(file.Runs) == 0 {
		t.Fatal("BENCH_coding.json has no runs; run scripts/bench.sh")
	}
	recorded := map[string]bool{}
	for label, run := range file.Runs {
		if len(run.Benchmarks) == 0 {
			t.Fatalf("run %q has no benchmarks", label)
		}
		for name, r := range run.Benchmarks {
			if r.NsPerOp <= 0 {
				t.Fatalf("run %q benchmark %q has ns_per_op %v", label, name, r.NsPerOp)
			}
			recorded[name] = true
			if top, _, ok := strings.Cut(name, "/"); ok {
				recorded[top] = true // a sub-benchmark records its parent
			}
		}
	}

	// The harness's selection regex and package list live in
	// cmd/benchjson; extract both from its source so this test cannot
	// drift from what bench.sh actually runs.
	src, err := os.ReadFile("cmd/benchjson/main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`defaultBench = "([^"]+)"`).FindSubmatch(src)
	if m == nil {
		t.Fatal("defaultBench not found in cmd/benchjson/main.go")
	}
	sel, err := regexp.Compile(string(m[1]))
	if err != nil {
		t.Fatalf("defaultBench does not compile: %v", err)
	}
	for _, name := range listBenchmarks(t, benchPackages(t, src)) {
		if sel.MatchString(strings.TrimPrefix(name, "Benchmark")) && !recorded[name] {
			t.Errorf("benchmark %s is selected by scripts/bench.sh but missing from BENCH_coding.json; re-run scripts/bench.sh", name)
		}
	}
}

// benchPackages extracts defaultPkgs from cmd/benchjson's source.
func benchPackages(t *testing.T, src []byte) []string {
	t.Helper()
	m := regexp.MustCompile(`defaultPkgs = \[\]string\{([^}]*)\}`).FindSubmatch(src)
	if m == nil {
		t.Fatal("defaultPkgs not found in cmd/benchjson/main.go")
	}
	pkgs := regexp.MustCompile(`"([^"]+)"`).FindAllSubmatch(m[1], -1)
	if len(pkgs) == 0 {
		t.Fatal("defaultPkgs is empty")
	}
	var out []string
	for _, p := range pkgs {
		out = append(out, string(p[1]))
	}
	return out
}

// listBenchmarks asks go test for the benchmark names in the packages
// scripts/bench.sh measures.
func listBenchmarks(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	for _, pkg := range pkgs {
		out, err := exec.Command("go", "test", "-list", "Benchmark.*", pkg).Output()
		if err != nil {
			t.Fatalf("listing benchmarks in %s: %v", pkg, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "Benchmark") {
				names = append(names, line)
			}
		}
	}
	return names
}
