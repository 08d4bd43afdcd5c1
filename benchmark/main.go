// Command benchmark is the one benchmark of this repository: four
// workloads over the codec (ipcomp façade), the region server (ipcompd as
// a child process) and the write path (online ingest into the CAS), with
// named end-to-end metrics, per-layer metrics measured from outside, and
// a latency budget. BENCHMARK.json at the repository root lists the
// workloads, metrics, units, directions and regression bounds; README.md
// says why each workload exists and how to read the output.
//
//	bash benchmark/run.sh --workload serve_cold_roi --seed 1 --seconds 30 --trace 0
//	go run -C benchmark . -workload all -seed 1 -out run.json
//	go run -C benchmark . -compare before/ after/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// buildDir, under the checkout root, holds everything a run leaves
// behind: toolchain caches (run.sh), the ipcompd binary, cached base
// fields and per-run scratch. Nothing is written outside it.
const buildDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output: what the driver
// parses.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

type budgetTerm struct {
	Term string  `json:"term"`
	Ms   float64 `json:"ms"`
}

// result is one workload's run as written to -out.
type result struct {
	Workload   string             `json:"workload"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	FailShare  float64            `json:"fail_share"`
	FirstError string             `json:"first_error,omitempty"`
	Metrics    map[string]metric  `json:"metrics"`
	Timings    map[string]timing  `json:"timings,omitempty"`
	Phases     []phase            `json:"phases"`
	Counts     map[string]float64 `json:"counts,omitempty"`
	Budget     []budgetTerm       `json:"budget,omitempty"`
	Layers     []layerTime        `json:"layers,omitempty"`
	Spans      []span             `json:"spans,omitempty"`

	specs []metricSpec
}

func newResult(workload string, trace bool) *result {
	r := &result{
		Workload: workload,
		Metrics:  make(map[string]metric),
		Timings:  make(map[string]timing),
		Counts:   make(map[string]float64),
		specs:    endToEnd,
	}
	if trace {
		r.specs = perLayer
	}
	return r
}

// set records a metric of the current mode; a name outside the mode's
// list is a bug in the benchmark, not in the program under test. A value
// that is not a number (a mean over no samples) is not recorded.
func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return // nothing to report: finish treats the metric as missing
	}
	for _, s := range r.specs {
		if s.name == name {
			r.Metrics[name] = metric{Value: v, Unit: s.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in this mode's list")
}

func (r *result) phase(name string, d time.Duration) {
	r.Phases = append(r.Phases, phase{Name: name, Seconds: d.Seconds()})
}

func (r *result) timing(name string, ms []float64) {
	if len(ms) > 0 {
		r.Timings[name] = summarize(ms)
	}
}

// finish folds in the tally and checks the metric set is complete. In
// the per-layer mode a layer the workload never enters reports 0.
func (r *result) finish(t *tally, trace bool) error {
	r.Attempted, r.Failed = t.attempted, t.failed
	if r.Attempted > 0 {
		r.FailShare = float64(r.Failed) / float64(r.Attempted)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if t.first != nil {
		r.FirstError = t.first.Error()
	}
	for _, s := range r.specs {
		if _, ok := r.Metrics[s.name]; ok {
			continue
		}
		if !trace {
			return fmt.Errorf("workload %s did not report %s", r.Workload, s.name)
		}
		r.Metrics[s.name] = metric{Value: 0, Unit: s.unit}
	}
	return nil
}

type env struct {
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

type runFile struct {
	Schema  int      `json:"schema"`
	Env     env      `json:"env"`
	Results []result `json:"results"`
}

// runCtx is what a workload is handed.
type runCtx struct {
	root    string // checkout root
	work    string // per-run scratch under buildDir, removed at exit
	seed    int64
	seconds float64
	trace   bool
	sz      sizes
	gen     genClock
	buildS  float64 // go build of ipcompd, reported as gen.build_s
	bin     string  // ipcompd, built on first use
}

// conns is the number of client connections (and closed-loop clients):
// the driver uses at most nproc of them, capped at 4.
func conns() int { return min(runtime.NumCPU(), 4) }

// findRoot locates the checkout root from the working directory: the
// root itself (run.sh) or benchmark/ (go run -C benchmark, go test).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ipcompd", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no checkout root at or above %s (looked for cmd/ipcompd/main.go): the benchmark builds the program from source", wd)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

var workloads = map[string]func(*runCtx) (*result, error){
	"codec_field":       runCodecField,
	"serve_cold_roi":    runServeCold,
	"serve_warm_refine": runServeWarm,
	"ingest_series":     runIngestSeries,
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	workload := flag.String("workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "drives every random choice: crop offsets, ROI positions, bounds, churned tiles, arrival times")
	seconds := flag.Float64("seconds", runSeconds, "the run length; the driver passes run_seconds of BENCHMARK.json, and no other value is accepted")
	trace := flag.Int("trace", 0, "0: the untraced run, reporting the end-to-end metrics; 1: the traced run, reporting the per-layer metrics and the latency budget")
	out := flag.String("out", "", "also write the full result (environment, timings, phases, spans) to this file")
	keepAwake := flag.Bool("keepawake", false, "internal: run as a keep-awake helper (see keepawake.go)")
	compare := flag.Bool("compare", false, "compare two sets of result files: -compare A B, each a file, a directory or a comma-separated list")
	flag.Parse()
	if *keepAwake {
		keepAwakeMain()
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two arguments, got %d", flag.NArg())
		}
		return runCompare(root, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds != runSeconds {
		return fmt.Errorf("-seconds must be %d, the run length every count and rate is frozen for; got %g", runSeconds, *seconds)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if workloads[*workload] == nil {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", "))
	}

	rf := runFile{Schema: 1, Env: env{
		NProc: runtime.NumCPU(), CPUModel: cpuModel(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commitOf(root),
		Seed: *seed, Seconds: runSeconds, Trace: *trace == 1,
	}}
	defer startKeepAwake()()
	ok := true
	for _, name := range names {
		res, err := runWorkload(root, name, *seed, runSeconds, *trace == 1, false)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rf.Results = append(rf.Results, *res)
		printResult(res)
		ok = ok && res.Correct
	}
	if *out != "" {
		if err := writeRunFile(*out, &rf); err != nil {
			return err
		}
	}
	// The contract line goes last, one per workload; the driver runs one
	// workload at a time and reads the final line.
	for i := range rf.Results {
		r := &rf.Results[i]
		line, err := json.Marshal(contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !ok {
		return fmt.Errorf("a workload produced a wrong answer or a failed operation (see first_error above)")
	}
	return nil
}

// writeRunFile writes the result file: the environment on the first line
// and one line per workload, so that a traced run's thousands of spans
// stay a reasonable size and two files still diff workload by workload.
func writeRunFile(path string, rf *runFile) error {
	envRaw, err := json.Marshal(rf.Env)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "{\"schema\":%d,\"env\":%s,\"results\":[\n", rf.Schema, envRaw)
	for i := range rf.Results {
		raw, err := json.Marshal(&rf.Results[i])
		if err != nil {
			return err
		}
		b.Write(raw)
		if i+1 < len(rf.Results) {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// runWorkload runs one workload in a scratch directory of its own. The
// tests pass small and a short run length; the command line cannot.
func runWorkload(root, name string, seed int64, seconds float64, trace, small bool) (*result, error) {
	work, err := os.MkdirTemp(mkBuildDir(root), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	ctx := &runCtx{root: root, work: work, seed: seed, seconds: seconds, trace: trace, sz: fullSizes}
	if small {
		ctx.sz = smallSizes
	}
	return workloads[name](ctx)
}

func mkBuildDir(root string) string {
	dir := filepath.Join(root, buildDir)
	os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

func printResult(r *result) {
	fmt.Printf("== %s: %d operations, %d failed", r.Workload, r.Attempted, r.Failed)
	if r.FirstError != "" {
		fmt.Printf(" (first: %s)", r.FirstError)
	}
	fmt.Println()
	for _, s := range r.specs {
		m := r.Metrics[s.name]
		fmt.Printf("  %-30s %14.6g %s\n", s.name, m.Value, m.Unit)
	}
	names := make([]string, 0, len(r.Timings))
	for n := range r.Timings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := r.Timings[n]
		fmt.Printf("  timing %-28s n=%-6d p50=%.3f ms  p%g=%.3f ms\n", n, t.N, t.P50, t.TailPct, t.Tail)
	}
	for _, p := range r.Phases {
		fmt.Printf("  phase  %-28s %.3f s\n", p.Name, p.Seconds)
	}
	if len(r.Budget) > 0 {
		fmt.Println("  latency budget:")
		for _, b := range r.Budget {
			fmt.Printf("    %-70s %10.4f ms\n", b.Term, b.Ms)
		}
	}
}
