// Command benchjson converts `go test -bench -benchmem` output into the
// stable BENCH_pipeline.json schema and enforces the repository's
// allocation gates.
//
// Usage:
//
//	go test -bench 'Into|AutoSuite' -benchmem -run '^$' ./... |
//	    go run ./cmd/benchjson -out BENCH_pipeline.json \
//	        -zero-alloc 'ComputeInto|EsizeBothInto|SubgraphInto' \
//	        -baseline BENCH_pipeline.json
//
// The output schema is versioned and append-only so downstream tooling can
// track the performance trajectory across PRs:
//
//	{
//	  "schema": "repro/bench_pipeline/v3",
//	  "baseline": [ {benchmark...} ],   // pre-PR reference, carried forward
//	  "benchmarks": [
//	    {"name": "...", "iterations": N,
//	     "ns_per_op": f, "bytes_per_op": f, "allocs_per_op": f,
//	     "metrics": {"envelope": f, "matvecs/solve": f, ...}}
//	  ],
//	  "gates": {"zero_alloc": [...], "required": [...]},  // enforced gates
//	  "host": {"goos": "linux", "goarch": "amd64", "cpu": "...",
//	           "gomaxprocs": N, "num_cpu": N, "goamd64": "v1"}
//	}
//
// v2 adds the "gates" record (which gates this artifact was produced
// under) and the eigensolver rows: the BenchmarkEigensolver multilevel-vs-
// Lanczos ablation reports a matvecs/solve metric alongside wall clock.
// v3 adds the "host" record: the goos, goarch and cpu header lines go test
// prints, GOMAXPROCS read from the -N suffix of the benchmark names (the
// largest one; go test prints none when GOMAXPROCS is 1), benchjson's own
// runtime.NumCPU() and GOAMD64 from the environment (default v1).
//
// -zero-alloc takes a comma-separated list of regular expressions; each
// pattern must match at least one benchmark (so a renamed or missing
// kernel benchmark cannot silently drop its gate) and every match must
// report 0 allocs/op, else the run fails (exit 1) — the CI guard that
// keeps the fused kernels allocation-free. -require takes the same kind of
// list without the allocation condition: each pattern must match at least
// one benchmark row, the presence gate that keeps the eigensolver ablation
// from silently dropping out of the artifact. A row whose name holds
// "/parallel/" and that reports a "workers" metric below 2 fails the run
// too, so a one-core run cannot pass for a parallel one. -baseline carries
// the pre-PR reference record forward: if the given file has a non-empty
// "baseline" it is preserved verbatim, otherwise its "benchmarks" become
// the baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Gates records which gates the artifact was produced under, so a reader
// knows what the numbers were already checked against.
type Gates struct {
	ZeroAlloc []string `json:"zero_alloc,omitempty"`
	Required  []string `json:"required,omitempty"`
}

// Host records the machine the benchmarks ran on, so that a number is
// never read without the cores behind it.
type Host struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// GOMAXPROCS is the largest -N suffix go test put on a benchmark name
	// (1 when there is none).
	GOMAXPROCS int `json:"gomaxprocs"`
	// NumCPU is runtime.NumCPU() of the benchjson process.
	NumCPU int `json:"num_cpu"`
	// GOAMD64 is the environment's GOAMD64, v1 when unset.
	GOAMD64 string `json:"goamd64"`
}

// File is the versioned artifact schema.
type File struct {
	Schema     string      `json:"schema"`
	Baseline   []Benchmark `json:"baseline,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Gates      *Gates      `json:"gates,omitempty"`
	Host       *Host       `json:"host,omitempty"`
}

const schemaVersion = "repro/bench_pipeline/v3"

// The optional -N suffix is the GOMAXPROCS tag go test appends; the lazy
// name match keeps it out of the recorded benchmark name and into Host.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

// parse reads the benchmark rows and the host header lines of go test
// output.
func parse(r io.Reader) ([]Benchmark, Host, error) {
	var out []Benchmark
	host := Host{GOMAXPROCS: 1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	// header keeps the first value of a "prefix value" header line.
	header := func(line, prefix string, field *string) {
		if v, ok := strings.CutPrefix(line, prefix); ok && *field == "" {
			*field = strings.TrimSpace(v)
		}
	}
	for sc.Scan() {
		line := sc.Text()
		header(line, "goos: ", &host.GOOS)
		header(line, "goarch: ", &host.GOARCH)
		header(line, "cpu: ", &host.CPU)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			continue
		}
		if procs, err := strconv.Atoi(m[2]); err == nil && procs > host.GOMAXPROCS {
			host.GOMAXPROCS = procs
		}
		b := Benchmark{Name: m[1], Iterations: iters}
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BytesPerOp = val
			case "allocs/op":
				b.AllocsPerOp = val
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		out = append(out, b)
	}
	host.NumCPU = runtime.NumCPU()
	host.GOAMD64 = os.Getenv("GOAMD64")
	if host.GOAMD64 == "" {
		host.GOAMD64 = "v1"
	}
	return out, host, sc.Err()
}

func loadBaseline(path string) []Benchmark {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil // first run: no baseline yet
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: ignoring unreadable baseline %s: %v\n", path, err)
		return nil
	}
	if len(f.Baseline) > 0 {
		return f.Baseline
	}
	return f.Benchmarks
}

func main() {
	in := flag.String("in", "", "bench output file (default: stdin)")
	out := flag.String("out", "BENCH_pipeline.json", "JSON artifact to write")
	zeroAlloc := flag.String("zero-alloc", "", "comma-separated regexps; each must match ≥1 benchmark and all matches must report 0 allocs/op")
	require := flag.String("require", "", "comma-separated regexps; each must match ≥1 benchmark row (presence gate, no allocation condition)")
	baseline := flag.String("baseline", "", "prior artifact whose pre-PR record is carried forward")
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		src = f
	}
	benches, host, err := parse(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parsing: %v\n", err)
		os.Exit(2)
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(2)
	}

	file := File{Schema: schemaVersion, Benchmarks: benches, Host: &host}
	if *baseline != "" {
		file.Baseline = loadBaseline(*baseline)
	}
	if za, req := splitPatterns(*zeroAlloc), splitPatterns(*require); len(za) > 0 || len(req) > 0 {
		file.Gates = &Gates{ZeroAlloc: za, Required: req}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("benchjson: wrote %s (%d benchmarks)\n", *out, len(benches))

	ok := true
	if n, passed := runGates("zero-alloc", *zeroAlloc, benches, true); !passed {
		ok = false
	} else if n > 0 {
		fmt.Printf("benchjson: %d zero-alloc gates passed\n", n)
	}
	if n, passed := runGates("require", *require, benches, false); !passed {
		ok = false
	} else if n > 0 {
		fmt.Printf("benchjson: %d presence gates passed\n", n)
	}
	if !parallelRowsParallel(benches) {
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
}

// splitPatterns splits a comma-separated flag value into trimmed non-empty
// patterns.
func splitPatterns(s string) []string {
	var out []string
	for _, pat := range strings.Split(s, ",") {
		if pat = strings.TrimSpace(pat); pat != "" {
			out = append(out, pat)
		}
	}
	return out
}

// runGates enforces one gate family over the parsed benchmarks: every
// pattern must match at least one benchmark (a gate whose benchmark
// disappeared — renamed, failed to run — is a failure, not a pass), and
// with checkAllocs every match must report 0 allocs/op. It returns the
// total match count and whether all gates passed.
func runGates(name, patterns string, benches []Benchmark, checkAllocs bool) (int, bool) {
	ok := true
	total := 0
	for _, pat := range splitPatterns(patterns) {
		re, err := regexp.Compile(pat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -%s regexp %q: %v\n", name, pat, err)
			os.Exit(2)
		}
		matched := 0
		for _, b := range benches {
			if !re.MatchString(b.Name) {
				continue
			}
			matched++
			if checkAllocs && b.AllocsPerOp > 0 {
				fmt.Fprintf(os.Stderr, "benchjson: ALLOC REGRESSION: %s reports %g allocs/op (want 0)\n",
					b.Name, b.AllocsPerOp)
				ok = false
			}
		}
		if matched == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: -%s gate %q matched no benchmarks\n", name, pat)
			ok = false
		}
		total += matched
	}
	return total, ok
}

// parallelRowsParallel reports whether every "/parallel/" row that reports
// a "workers" metric ran with at least two workers, naming each one that
// did not.
func parallelRowsParallel(benches []Benchmark) bool {
	ok := true
	for _, b := range benches {
		if w, has := b.Metrics["workers"]; has && strings.Contains(b.Name, "/parallel/") && w < 2 {
			fmt.Fprintf(os.Stderr, "benchjson: %s ran with %g worker(s); a parallel row needs at least 2\n", b.Name, w)
			ok = false
		}
	}
	return ok
}
