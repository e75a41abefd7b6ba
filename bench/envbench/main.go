// Command envbench is the repository's benchmark. It generates every input
// from a seed, drives the ordering library, the daemon and its client
// through four workloads, checks every answer, and prints end-to-end
// metrics, or per-layer metrics with -trace 1:
//
//	go run ./envbench -seed 1                       # every workload, one process each
//	go run ./envbench -seed 1 -workload cold_paper -seconds 15 -trace 1
//	go run ./envbench -smoke                        # tiny sizes, all checks on
//
// Run it from the bench module directory. Every metric prints as
// "workload metric value unit"; the last line of standard output is one
// JSON object with the fields correct, attempted, failed and metrics. The
// exit status is non-zero when any check fails. bench/README.md describes
// the workloads, metrics and bounds.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it, in run
// order.
var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"cold_paper", coldPaper},
	{"service_warm", serviceWarm},
	{"service_churn", serviceChurn},
	{"batch_cold", batchCold},
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, and perLayer those
// of a traced run; BENCHMARK.json names the same metrics (pinned by
// TestBenchmarkJSONMatches). A per-layer metric of a layer the workload
// never reaches reads 0 and is left out of the human-readable lines.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"orders_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_order", "ms"},
	{"peak_rss_mb", "MB"},
	{"esize_vs_rcm", "ratio"},
}

var perLayer = []metricDef{
	{"mm.decode_ms", "ms"},
	{"graph.split_ms", "ms"},
	{"graph.fingerprint_ms", "ms"},
	{"laplacian.build_ms", "ms"},
	{"laplacian.apply_ms", "ms"},
	{"laplacian.applies", "count"},
	{"laplacian.workers", "count"},
	{"solver.lanczos_ms", "ms"},
	{"solver.multilevel_ms", "ms"},
	{"solver.matvecs", "count"},
	{"solver.rqi_iterations", "count"},
	{"solver.jacobi_sweeps", "count"},
	{"solver.levels", "count"},
	{"solver.residual_max", "1"},
	{"solver.solves_per_order", "count"},
	{"solver.multilevel_share", "ratio"},
	{"core.order_fiedler_ms", "ms"},
	{"core.spectral_ms", "ms"},
	{"core.spectral_sloan_ms", "ms"},
	{"order.rcm_ms", "ms"},
	{"order.gk_ms", "ms"},
	{"order.gps_ms", "ms"},
	{"order.sloan_ms", "ms"},
	{"envelope.stats_ms", "ms"},
	{"pipeline.auto_ms", "ms"},
	{"pipeline.candidates_ms", "ms"},
	{"pipeline.fanout_efficiency", "ratio"},
	{"pipeline.batch_efficiency", "ratio"},
	{"store.get_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.gets", "count"},
	{"store.puts", "count"},
	{"store.hit_rate", "ratio"},
	{"client.roundtrip_ms", "ms"},
	{"http.transport_ms", "ms"},
	{"service.handler_ms", "ms"},
	{"service.session_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.wait_ms", "ms"},
	{"service.eigensolve_ms", "ms"},
	{"service.batch_ms", "ms"},
	{"service.item_ms", "ms"},
	{"service.wire_bytes", "B"},
	{"service.cache_hit_rate", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	jsonOut  string
	traceOut string
}

func parseFlags(args []string) (config, error) {
	var c config
	var trace int
	fs := flag.NewFlagSet("envbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&c.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&c.seconds, "seconds", 15, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run, 0 = end-to-end metrics")
	fs.BoolVar(&c.smoke, "smoke", false, "tiny inputs and a short window, every check on")
	fs.StringVar(&c.jsonOut, "json", "", "also write the result, with host metadata, to this file")
	fs.StringVar(&c.traceOut, "trace-out", "", "with -trace 1, write the spans to this file, one JSON object per line")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	c.trace = trace == 1
	if c.smoke && !isFlagSet(fs, "seconds") {
		c.seconds = 0.3
	}
	if c.seconds <= 0 {
		return c, fmt.Errorf("-seconds must be positive")
	}
	if c.workload != "all" && workloadRun(c.workload) == nil {
		return c, fmt.Errorf("unknown workload %q (want all, %s)", c.workload, strings.Join(workloadNames(), ", "))
	}
	return c, nil
}

func isFlagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadRun(name string) func(*run) error {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "envbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	var ok bool
	if cfg.workload == "all" {
		ok, err = runAll(cfg, os.Stdout)
	} else {
		ok, err = runOne(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "envbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one workload's measurement in progress.
type run struct {
	cfg  config
	tr   *tracer // nil on untraced runs
	host host

	values map[string]float64
	notes  []string // "# ..." lines: sample counts, host, layer shapes

	attempted int
	bad       map[int]string // failed or wrong operation → first reason
	broken    []string       // run-level checks that failed
}

func newRun(cfg config) *run {
	r := &run{cfg: cfg, host: newHost(), values: map[string]float64{}, bad: map[int]string{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// set records a metric. Only the metrics of the run's mode (defs) are
// reported.
func (r *run) set(name string, v float64) {
	r.values[name] = v
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks operation op failed or wrong.
func (r *run) fail(op int, format string, args ...any) {
	if _, dup := r.bad[op]; !dup {
		r.bad[op] = fmt.Sprintf(format, args...)
	}
}

// breakCheck records a failed run-level check.
func (r *run) breakCheck(format string, args ...any) {
	r.broken = append(r.broken, fmt.Sprintf(format, args...))
}

func (r *run) failed() int { return len(r.bad) + len(r.broken) }

func (r *run) defs() []metricDef {
	if r.cfg.trace {
		return perLayer
	}
	return endToEnd
}

func (r *run) result() result {
	res := result{
		Correct:   r.failed() == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed(),
		Metrics:   map[string]metric{},
	}
	for _, d := range r.defs() {
		v := r.values[d.name]
		if math.IsInf(v, 1) || math.IsNaN(v) {
			// A percentile that reaches into failed operations; the run
			// is already incorrect, and JSON has no +Inf.
			v = math.MaxFloat64
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res
}

// report prints the human-readable lines and then the JSON result line.
func (r *run) report(w io.Writer) error {
	name := r.cfg.workload
	h := r.host
	fmt.Fprintf(w, "# %s host nproc=%d gomaxprocs=%d goamd64=%s go=%s cpu=%q\n",
		name, h.NProc, h.GOMAXPROCS, h.GOAMD64, h.Go, h.CPU)
	fmt.Fprintf(w, "# %s layers laplacian.workers=%d (%s) batch.workers>=%d (%s)\n",
		name, h.LaplacianWorkers, shape(h.LaplacianWorkers), h.BatchWorkers, shape(h.BatchWorkers))
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s %s\n", name, n)
	}
	res := r.result()
	for _, d := range r.defs() {
		if v, ok := r.values[d.name]; ok {
			fmt.Fprintf(w, "%s %s %s %s\n", name, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		}
	}
	fmt.Fprintf(w, "%s failed_frac %s 1\n", name, strconv.FormatFloat(ratio(float64(r.failed()), float64(r.attempted)), 'g', -1, 64))
	reasons := make([]string, 0, len(r.bad))
	for op, why := range r.bad {
		reasons = append(reasons, fmt.Sprintf("op %d: %s", op, why))
	}
	sort.Strings(reasons)
	for i, why := range append(r.broken, reasons...) {
		if i == 10 {
			fmt.Fprintf(w, "# %s FAIL ... %d more\n", name, r.failed()-10)
			break
		}
		fmt.Fprintf(w, "# %s FAIL %s\n", name, why)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// document is what -json writes for one workload.
type document struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Host     host     `json:"host"`
	Notes    []string `json:"notes"`
	Result   result   `json:"result"`
}

func runOne(cfg config, w io.Writer) (bool, error) {
	r := newRun(cfg)
	if err := workloadRun(cfg.workload)(r); err != nil {
		return false, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if r.tr != nil && cfg.traceOut != "" {
		if err := r.tr.write(cfg.traceOut); err != nil {
			return false, err
		}
	}
	if cfg.jsonOut != "" {
		doc := document{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, r.host, r.notes, r.result()}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(cfg.jsonOut, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	if err := r.report(w); err != nil {
		return false, err
	}
	return r.result().Correct, nil
}

// runAll runs every workload in a process of its own, relays their lines
// and ends with one JSON line whose metrics are keyed "workload/metric".
func runAll(cfg config, w io.Writer) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	var docs []json.RawMessage
	for _, name := range workloadNames() {
		args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0"}
		if cfg.trace {
			args[len(args)-1] = "1"
		}
		if cfg.smoke {
			args = append(args, "-smoke")
		}
		part := ""
		if cfg.jsonOut != "" {
			part = cfg.jsonOut + "." + name
			args = append(args, "-json", part)
		}
		if cfg.traceOut != "" {
			args = append(args, "-trace-out", cfg.traceOut+"."+name)
		}
		res, err := runChild(self, args, w)
		if err != nil {
			return false, fmt.Errorf("%s: %w", name, err)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[name+"/"+k] = m
		}
		if part != "" {
			b, err := os.ReadFile(part)
			if err != nil {
				return false, err
			}
			docs = append(docs, b)
			if err := os.Remove(part); err != nil {
				return false, err
			}
		}
	}
	if cfg.jsonOut != "" {
		b, err := json.MarshalIndent(docs, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(cfg.jsonOut, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return total.Correct, err
}

// runChild runs one workload process, copies its output lines to w except
// the final JSON result, and returns that result. A child that fails a
// check exits non-zero after printing its result; that is not an error
// here.
func runChild(self string, args []string, w io.Writer) (result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(w, last)
		}
		last = sc.Text()
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	if scanErr != nil {
		return result{}, scanErr
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if waitErr != nil {
			return result{}, waitErr
		}
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	var exit *exec.ExitError
	if waitErr != nil && !errors.As(waitErr, &exit) {
		return result{}, waitErr
	}
	return res, nil
}

// setUp builds a workload's state setUpRounds times and keeps the last
// build, reporting the median build time as setup_s: one build is too
// noisy to gate on. build returns a teardown for its state.
func (r *run) setUp(build func() (teardown func(), err error)) (teardown func(), err error) {
	rounds := setUpRounds
	if r.cfg.smoke {
		rounds = 1
	}
	var secs []float64
	for k := 0; k < rounds; k++ {
		t := time.Now()
		td, err := build()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t).Seconds())
		if k < rounds-1 {
			td()
			continue
		}
		teardown = td
	}
	r.set("setup_s", median(secs))
	r.note("setup_s rounds=%d %v", rounds, secs)
	return teardown, nil
}

// setUpRounds is how many times setUp builds a workload's state. The host
// the bounds were set on runs a fixed CPU loop up to twice as slow from
// one second to the next; the median of five builds spans several seconds
// of that.
const setUpRounds = 5

// window is the timed part of a run: wall time and process CPU time.
type window struct {
	start time.Time
	cpu0  time.Duration
	wall  time.Duration
	cpu   time.Duration
}

func startWindow() window { return window{start: time.Now(), cpu0: cpuTime()} }

func (w *window) stop() {
	w.wall = time.Since(w.start)
	w.cpu = cpuTime() - w.cpu0
}

// endToEnd sets the end-to-end metrics shared by every workload.
func (r *run) endToEnd(w window, orders int, lat latency, q quality) {
	r.set("orders_per_s", float64(orders)/w.wall.Seconds())
	r.set("latency_p50_ms", lat.p50)
	r.set("latency_p90_ms", lat.p90)
	r.set("cpu_ms_per_order", ratio(ms(w.cpu), float64(orders)))
	r.set("peak_rss_mb", peakRSSMB())
	r.set("esize_vs_rcm", q.vsRCM())
	// The 99th percentile is printed, not gated: on a shared two-core host
	// it does not repeat within any bound a gate could use.
	r.note("window wall=%.3fs orders=%d latency samples=%d p90 at q%.4f, p99 at q%.4f = %.4g ms",
		w.wall.Seconds(), orders, lat.n, lat.q90, lat.q99, lat.p99)
}
