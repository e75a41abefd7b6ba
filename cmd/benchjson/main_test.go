package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/laplacian
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSpMV/csr/serial/n20k-2         	     500	     81234 ns/op	       0 B/op	       0 allocs/op
BenchmarkSpMV/csr/parallel/n20k-2       	     500	    101234 ns/op	         2.000 workers	       0 B/op	       0 allocs/op
PASS
goos: linux
goarch: amd64
pkg: repro/internal/solver
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEigensolver/multilevel/tri_n1k-2   	       1	   7000000 ns/op	       300.0 esize	   250.0 matvecs/solve	  1000 B/op	      10 allocs/op
`

func TestParseRecordsHost(t *testing.T) {
	t.Setenv("GOAMD64", "")
	benches, host, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("parsed %d rows, want 3", len(benches))
	}
	if benches[1].Name != "BenchmarkSpMV/csr/parallel/n20k" || benches[1].Metrics["workers"] != 2 {
		t.Fatalf("row %+v", benches[1])
	}
	if got := benches[2].Metrics; got["esize"] != 300 || got["matvecs/solve"] != 250 {
		t.Fatalf("metrics %v", got)
	}
	want := Host{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz", GOMAXPROCS: 2, NumCPU: host.NumCPU, GOAMD64: "v1"}
	if host != want || host.NumCPU < 1 {
		t.Fatalf("host %+v, want %+v", host, want)
	}
}

// go test prints no -N suffix when GOMAXPROCS is 1.
func TestParseNoSuffixIsOneProc(t *testing.T) {
	t.Setenv("GOAMD64", "v3")
	_, host, err := parse(strings.NewReader("BenchmarkX 10 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if host.GOMAXPROCS != 1 || host.GOAMD64 != "v3" {
		t.Fatalf("host %+v", host)
	}
}

func TestParallelRowsNeedTwoWorkers(t *testing.T) {
	rows := func(workers float64) []Benchmark {
		return []Benchmark{
			{Name: "BenchmarkSpMV/csr/serial/n20k", Metrics: map[string]float64{"workers": 1}},
			{Name: "BenchmarkAutoSuite/parallel"},
			{Name: "BenchmarkSpMV/sell/parallel/n20k", Metrics: map[string]float64{"workers": workers}},
		}
	}
	if !parallelRowsParallel(rows(2)) {
		t.Fatal("a two-worker parallel row failed the gate")
	}
	if parallelRowsParallel(rows(1)) {
		t.Fatal("a one-worker parallel row passed the gate")
	}
}
