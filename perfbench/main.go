// Command perfbench is the repository benchmark: it generates seeded inputs,
// drives one workload against the program (the cmd/serve binary over
// loopback HTTP, or the library in-process), checks the program's outputs,
// and prints one JSON result line with the operations attempted and failed
// and every metric by name and unit.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	perfbench --workload annotate-cold --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured untraced. --trace 1
// replays the same seeded inputs through the public calls of every layer
// in-process and prints the per-layer metrics, with stage coverage and
// tracing overhead. See README.md for the workloads, inputs and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// procs is GOMAXPROCS of the benchmark and of the server child and the
// library's Workers setting: 2, the machine's CPU count the load is sized
// for. run.sh pins the benchmark and its children to one CPU, so these run
// interleaved rather than in parallel (see README.md).
const procs = 2

// conns is the number of concurrent client connections (and ingest
// readers): 2, so a flash crowd is two simultaneous requests.
const conns = 2

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run collects one run's outcome: operation counts, metrics and the first
// few check failures (printed to stderr so a failing run says why).
type run struct {
	seed     int64
	seconds  float64
	serveBin string

	attempted int64
	failed    int64
	failures  []string
	metrics   map[string]metric
}

func newRun(seed int64, seconds float64, serveBin string) *run {
	return &run{seed: seed, seconds: seconds, serveBin: serveBin, metrics: make(map[string]metric)}
}

// op records one attempted operation; a non-nil err marks it failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// workload runs one workload untraced (end-to-end metrics).
type workload func(r *run) error

var workloads = map[string]workload{
	"annotate-cold": annotateWorkload,
	"ingest-live":   ingestWorkload,
	"offline-build": offlineBuildWorkload,
	"offline-repro": offlineReproWorkload,
}

// endToEnd and perLayer list the metric names each mode must report; a run
// that misses one fails rather than print a partial result.
var endToEnd = []string{"setup_s", "peak_rss_mb", "work_s", "latency_p50_ms"}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "measurement length in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer trace")
	serveBin := flag.String("serve", ".bench_build/bin/serve", "path of the cmd/serve binary")
	flag.Parse()

	runtime.GOMAXPROCS(procs)
	wl, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if _, err := os.Stat(*serveBin); err != nil {
		fatal(fmt.Errorf("serve binary: %w", err))
	}

	r := newRun(*seed, *seconds, *serveBin)
	want := endToEnd
	var err error
	if *trace == 1 {
		want = perLayerNames()
		err = traceWorkload(r, *name)
	} else {
		err = wl(r)
	}
	if err != nil {
		fatal(err)
	}
	for _, m := range want {
		if _, ok := r.metrics[m]; !ok {
			fatal(fmt.Errorf("metric %s was not measured", m))
		}
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric, len(want))}
	for _, m := range want {
		out.Metrics[m] = r.metrics[m]
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	if *trace == 1 {
		printTable(r.metrics, want)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable writes the traced metrics as an aligned table on stdout, ahead
// of the JSON line, so a reader sees the layer numbers without parsing.
func printTable(ms map[string]metric, names []string) {
	for _, n := range names {
		m := ms[n]
		fmt.Printf("%-32s %16.4f %s\n", n, m.Value, m.Unit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// errf builds a check failure.
func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

var errDegraded = errors.New("degraded response")

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// logLatency prints the latency distribution, the generator's lag and the
// per-round work times on stderr, for reading a run's steadiness.
func logLatency(lat, lag, rounds []float64) {
	mean := 0.0
	for _, x := range lat {
		mean += x / float64(len(lat))
	}
	fmt.Fprintf(os.Stderr, "perfbench: latency ms mean %.3f p50 %.3f p90 %.3f p95 %.3f p99 %.3f (n=%d); lag p99 %.3f ms; rounds %v\n",
		mean, quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99), len(lat), quantile(lag, 0.99), rounds)
}
