// Command bench is the one benchmark of the served store: it builds the
// real hdfscli, serves shard stores from a child `hdfscli serve`,
// drives it open and closed loop over at most nproc connections,
// verifies every byte, and — in a separate traced pass — replays the
// same ops at every layer boundary from the socket down to the GF(256)
// kernel. BENCHMARK.json at the checkout root names every workload and
// metric; README.md explains them.
//
//	bash bench/run.sh --workload hot_read --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --seed 1          # all four workloads, traced
//	bash bench/run.sh --aa              # the suite twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"

	_ "repro/internal/code/heptlocal"
	_ "repro/internal/code/polygon"
	_ "repro/internal/code/rs"
)

// env is where a run happens: the checkout, the built server, and the
// machine's parallelism.
type env struct {
	outDir  string // bench/out: run directories and trace files
	hdfscli string
	spec    benchSpec
	nproc   int
	// smoke shrinks every workload and sets up once.
	smoke bool
}

// runOpts are the driver's per-run arguments.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
}

// phaseSummary keeps fail_ratio's base visible for every phase.
type phaseSummary struct {
	Name      string  `json:"name"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Seconds   float64 `json:"seconds"`
}

// result is everything one run of one workload measured.
type result struct {
	workload  string
	correct   bool
	phases    []phaseSummary
	e2e       map[string]float64
	layers    map[string]float64 // nil unless traced
	samples   map[string]int     // samples behind a metric, where it has any
	problems  []string           // why correct is false, or why the run is invalid
	traceFile string
}

func newResult(name string) *result {
	return &result{workload: name, correct: true, e2e: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) phase(p *phaseResult) {
	r.phases = append(r.phases, phaseSummary{p.name, p.attempted, p.failed, p.elapsed.Seconds()})
	if p.wrongBytes > 0 {
		r.fail("%s: %d replies carried wrong bytes", p.name, p.wrongBytes)
	}
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) totals() (attempted, failed int) {
	for _, p := range r.phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return
}

func main() {
	workloadName := flag.String("workload", "", "run this workload and print the driver's result line; empty runs all four")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := flag.Float64("seconds", 0, "measured seconds per workload; 0 uses run_seconds from BENCHMARK.json")
	trace := flag.Int("trace", -1, "1 adds the traced per-layer pass and reports per-layer metrics, 0 reports end-to-end metrics; default 0 with -workload, else 1")
	aa := flag.Bool("aa", false, "run the suite twice on the same binary and compare every end-to-end metric with its bound")
	smoke := flag.Bool("smoke", false, "tiny working sets, about two seconds per workload, output checked against BENCHMARK.json")
	flag.Parse()

	e, err := newEnv(*smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	opts := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1 || (*trace < 0 && *workloadName == "" && !*aa)}
	if opts.seconds <= 0 {
		opts.seconds = float64(e.spec.RunSeconds)
		if e.smoke {
			opts.seconds = 2
		}
	}
	stopOnSignal()

	switch {
	case *aa:
		err = runAA(e, opts)
	case *workloadName != "":
		err = runOne(e, *workloadName, opts)
	default:
		err = runAll(e, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func newEnv(smoke bool) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return nil, err
	}
	benchDir := filepath.Join(root, spec.Paths[0])
	buildDir := filepath.Join(benchDir, ".build")
	outDir := filepath.Join(benchDir, "out")
	for _, d := range []string{buildDir, outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	hdfscli, err := buildHdfscli(root, buildDir)
	if err != nil {
		return nil, err
	}
	return &env{outDir: outDir, hdfscli: hdfscli, spec: spec, nproc: runtime.NumCPU(), smoke: smoke}, nil
}

// run measures one workload.
func (e *env) run(w workload, opts runOpts) (*result, error) {
	if e.smoke {
		w = w.smoke()
	}
	dir, err := os.MkdirTemp(e.outDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Whatever ran before — the build, an earlier run's clean-up — has
	// left writeback behind; flush it so this run starts on a quiet disk.
	syscall.Sync()
	var res *result
	if w.inProcess {
		res, err = runBulk(e, &w, dir, opts)
	} else {
		res, err = runServing(e, &w, dir, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := checkMetrics(res.e2e, e.spec.EndToEnd); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if res.layers != nil {
		if err := checkMetrics(res.layers, e.spec.PerLayer); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return res, nil
}

// runOne is the driver's entry: one workload, a table for people, and
// as the last line of standard output the result object.
func runOne(e *env, name string, opts runOpts) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := e.run(w, opts)
	if err != nil {
		return err
	}
	printTable(e, res)
	specs, values := e.spec.EndToEnd, res.e2e
	if opts.trace {
		specs, values = e.spec.PerLayer, res.layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range specs {
		metrics[m.Name] = value{values[m.Name], m.Unit}
	}
	attempted, failed := res.totals()
	line, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.correct {
		return fmt.Errorf("%s: output was not correct: %v", name, res.problems)
	}
	return nil
}

// runAll runs the four workloads and ends with one JSON summary. This
// benchmark defines the instrument; it claims no gain.
func runAll(e *env, opts runOpts) error {
	type workloadOut struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		FailRatio float64            `json:"fail_ratio"`
		Phases    []phaseSummary     `json:"phases"`
		Problems  []string           `json:"problems,omitempty"`
		EndToEnd  map[string]float64 `json:"end_to_end"`
		PerLayer  map[string]float64 `json:"per_layer,omitempty"`
		Trace     string             `json:"trace,omitempty"`
	}
	summary := struct {
		Seed      int64                  `json:"seed"`
		Seconds   float64                `json:"seconds"`
		Nproc     int                    `json:"nproc"`
		Workloads map[string]workloadOut `json:"workloads"`
		Claim     *string                `json:"claim"`
	}{Seed: opts.seed, Seconds: opts.seconds, Nproc: e.nproc, Workloads: map[string]workloadOut{}}
	allCorrect := true
	for _, w := range workloads {
		res, err := e.run(w, opts)
		if err != nil {
			return err
		}
		printTable(e, res)
		attempted, failed := res.totals()
		summary.Workloads[w.name] = workloadOut{
			Correct: res.correct, Attempted: attempted, Failed: failed,
			FailRatio: float64(failed) / float64(attempted),
			Phases:    res.phases, Problems: res.problems,
			EndToEnd: res.e2e, PerLayer: res.layers, Trace: res.traceFile,
		}
		allCorrect = allCorrect && res.correct
	}
	out, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !allCorrect {
		return fmt.Errorf("some output was not correct")
	}
	return nil
}

// printTable prints every metric of a run by name, value, unit and
// sample count, and every phase's attempted and failed counts.
func printTable(e *env, res *result) {
	attempted, failed := res.totals()
	fmt.Printf("== %s  correct=%v attempted=%d failed=%d fail_ratio=%g\n",
		res.workload, res.correct, attempted, failed, float64(failed)/float64(attempted))
	for _, p := range res.phases {
		fmt.Printf("   phase %-10s attempted=%-6d failed=%-3d %.2fs\n", p.Name, p.Attempted, p.Failed, p.Seconds)
	}
	for _, p := range res.problems {
		fmt.Printf("   PROBLEM %s\n", p)
	}
	row := func(m metricSpec, v float64) {
		n := ""
		if c, ok := res.samples[m.Name]; ok {
			n = fmt.Sprintf("n=%d", c)
		}
		fmt.Printf("   %-40s %14.4f %-6s %s\n", m.Name, v, m.Unit, n)
	}
	for _, m := range e.spec.EndToEnd {
		row(m, res.e2e[m.Name])
	}
	if res.layers != nil {
		for _, m := range e.spec.PerLayer {
			row(m, res.layers[m.Name])
		}
		fmt.Printf("   trace written to %s\n", res.traceFile)
	}
}

// runAA runs the suite twice on the same binary and prints, as the
// markdown kept in AA.md, how far each end-to-end metric moved between
// two runs of identical code beside the bound it is allowed.
func runAA(e *env, opts runOpts) error {
	opts.trace = false
	var runs [2]map[string]*result
	for i := range runs {
		runs[i] = map[string]*result{}
		for _, w := range workloads {
			res, err := e.run(w, opts)
			if err != nil {
				return err
			}
			if !res.correct {
				return fmt.Errorf("%s: output was not correct: %v", w.name, res.problems)
			}
			runs[i][w.name] = res
		}
	}
	fmt.Printf("# A/A: the suite twice on one binary (seed %d, %g s per workload, nproc %d)\n\n", opts.seed, opts.seconds, e.nproc)
	fmt.Println("`worse` is how far the second run is worse than the first, as a share of the first; it must stay within `bound`.")
	fmt.Println()
	fmt.Println("| workload | metric | unit | first | second | worse | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	exceeded := 0
	for _, w := range workloads {
		a, b := runs[0][w.name], runs[1][w.name]
		for _, m := range e.spec.EndToEnd {
			va, vb := a.e2e[m.Name], b.e2e[m.Name]
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "EXCEEDED"
				exceeded++
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %+.3f | %.2f | %s |\n", w.name, m.Name, m.Unit, va, vb, worse, m.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metrics moved by more than their bound between two runs of the same code", exceeded)
	}
	return nil
}

// stopOnSignal keeps SIGINT and SIGTERM from leaving a child server
// behind: the children are killed and waited for before the bench exits.
func stopOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		killChildren()
		os.Exit(130)
	}()
}
