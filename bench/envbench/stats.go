package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail percentile read off fewer samples than this is one or two unlucky
// operations, not a property of the system.
const minBeyond = 10

// supported returns the percentile to report for target q over n samples:
// q itself, or the highest percentile with at least minBeyond samples above
// its position q·(n−1) in the sorted samples when n is too small to
// support q.
func supported(q float64, n int) float64 {
	if n <= minBeyond {
		return 0
	}
	if hi := float64(n-1-minBeyond) / float64(n-1); q > hi {
		return hi
	}
	return q
}

// quantile is the Harrell–Davis estimate of quantile q of sorted samples:
// a mean of every order statistic, weighted by the Beta((n+1)q,
// (n+1)(1−q)) distribution of the q-th sample quantile. A closed-loop run
// orders a suite of graphs of very different sizes, so its latencies
// cluster by graph; a plain order statistic then jumps from one cluster to
// the next with noise, where this estimate moves smoothly. Failed
// operations are +Inf samples: a quantile whose position q·(n−1) reaches
// one is +Inf, and below that the failures' vanishing weights are dropped.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return math.NaN()
	case q <= 0 || n == 1:
		return sorted[0]
	case q >= 1:
		return sorted[n-1]
	case math.IsInf(sorted[int(math.Ceil(q*float64(n-1)))], 1):
		return math.Inf(1)
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var sum, prev float64
	for i, x := range sorted {
		cdf := betaInc(a, b, float64(i+1)/float64(n))
		if w := cdf - prev; w > 0 && !math.IsInf(x, 1) {
			sum += w * x
		}
		if prev = cdf; prev >= 1 {
			break
		}
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	// The continued fraction converges fast on the side of the mean.
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

// betaFrac evaluates the continued fraction of I_x(a, b) by the modified
// Lentz method.
func betaFrac(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 10000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		step := d * c
		h *= step
		if math.Abs(step-1) < 1e-15 {
			break
		}
	}
	return h
}

// latency summarizes one workload's per-operation latencies in
// milliseconds.
type latency struct {
	n             int
	p50, p90, p99 float64
	// q90 and q99 are the percentiles actually read for p90 and p99 (see
	// supported); they are below 0.90 and 0.99 when the run is short.
	q90, q99 float64
}

func summarize(ms []float64) latency {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	l := latency{n: len(s), q90: supported(0.90, len(s)), q99: supported(0.99, len(s))}
	l.p50 = quantile(s, supported(0.50, len(s)))
	l.p90 = quantile(s, l.q90)
	l.p99 = quantile(s, l.q99)
	return l
}

// inf is the latency of a failed operation: it misses every limit.
var inf = math.Inf(1)

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch n := len(s); {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// host describes the machine and build a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	// LaplacianWorkers is the widest SpMV fan-out the run's solves
	// reported. BatchWorkers is the most batch items seen in flight at
	// once: the largest, over documents, of Σ item elapsed ÷ document
	// elapsed, rounded up. The daemon does not report its batch worker
	// count, so this is a lower bound observed from the responses (0 when
	// the workload sends no batches).
	LaplacianWorkers int `json:"laplacian_workers"`
	BatchWorkers     int `json:"batch_workers"`
}

func newHost() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64:    "unset",
		CPU:        "unknown",
		Go:         runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// shape labels a layer by the worker count it actually ran with, so a
// one-worker run is never reported as parallel.
func shape(workers int) string {
	switch {
	case workers <= 0:
		return "unused"
	case workers == 1:
		return "serial"
	}
	return "parallel"
}
