// Command bench runs one workload of the VERIFAS benchmark and prints
// its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 480, "failed": 0, "metrics": {"cpu_ref_s": {"value": 15.6, "unit": "s"}, ...}}
//
// Usage (from the repository root, normally through run.sh, which builds
// this command and the verifasd daemon first):
//
//	bench --workload real|synthetic|service --seed N --seconds S --trace 0|1
//
// Workloads:
//
//   - real: the hand-written workflows × 12 Table-4 templates plus the
//     curated properties, verified one after another on one goroutine;
//   - synthetic: the recorded list of generated jobs (jobs/synthetic_jobs.json),
//     verified the same way;
//   - service: the verifasd daemon over a warmed persistent store,
//     answering a seeded Zipf mix of the real questions from one
//     closed-loop client.
//
// Times are CPU times, scaled to a reference host speed by a probe run
// throughout the run (see probe); the line before the result gives the
// probe's median and the unscaled times.
//
// With --trace 0 the run attaches no observer and prints the end-to-end
// metrics; with --trace 1 it prints the per-layer metrics of an
// instrumented run of the same workload. Every verdict is checked against
// the reference table (jobs/reference.json); a wrong verdict makes
// "correct" false, and a malformed counterexample counts the job as
// failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"verifas/internal/benchmark/envinfo"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string
	workDir  string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "real, synthetic or service")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the job order and request mix")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured time; whole passes or rounds are run until it is spent")
	flag.IntVar(&trace, "trace", 0, "1 runs the instrumented pass and prints per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", ".bench_build/verifasd", "verifasd binary (service workload)")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build", "directory for the service workload's store")
	flag.Parse()
	o.trace = trace == 1

	// One P for the harness and the daemon. With a second one the Go
	// runtime runs idle-priority GC mark workers on it whenever it is
	// free: on 42 mid-sized real jobs that more than doubled the GC's CPU
	// time (53 against 20 ms per 240 ms of verification), and that time
	// varied by 29% between 12-second windows as the host's load came
	// and went. The search is
	// sequential by default, so one P changes no verdict and no amount of
	// search work.
	runtime.GOMAXPROCS(1)

	// The header goes out first, so every run records the host it ran on
	// (its gomaxprocs reads 1, as set above).
	hdr, _ := json.Marshal(map[string]any{"env": envinfo.Collect()})
	fmt.Println(string(hdr))

	// The probe reads this goroutine's thread CPU clock.
	runtime.LockOSThread()
	pr := newProbe()
	pr.run()

	var rep *report
	var err error
	switch o.workload {
	case "real", "synthetic":
		rep, err = runInProcess(o, pr)
	case "service":
		rep, err = runService(o, pr)
	default:
		err = fmt.Errorf("unknown workload %q (want real, synthetic or service)", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if o.trace {
		rep.Metrics["host.calib_ms"] = metric{pr.medianMS(), "ms"}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// endToEnd makes the end-to-end metrics of an untraced run: the median
// CPU time of one pass or round, the median and 95th percentile of the
// CPU time spent on one verdict (one job, or one request), the peak
// resident set and the set-up time. Times are CPU times (see processCPU) scaled to the
// reference host's speed (see probe). Before them it prints a line with
// the probe's median and the unscaled times.
func endToEnd(cpus, costs []float64, rss, setupS float64, pr *probe) map[string]metric {
	raw := map[string]float64{
		"cpu_s":          median(cpus),
		"verdict_p50_ms": median(costs),
		"verdict_p95_ms": percentile(costs, 0.95),
		"setup_s":        setupS,
	}
	line, _ := json.Marshal(map[string]any{"probe_ms": pr.medianMS(), "probes": len(pr.times), "unscaled": raw})
	fmt.Println(string(line))
	k := pr.scale()
	return map[string]metric{
		"cpu_ref_s":          {k * raw["cpu_s"], "s"},
		"verdict_p50_ref_ms": {k * raw["verdict_p50_ms"], "ms"},
		"verdict_p95_ref_ms": {k * raw["verdict_p95_ms"], "ms"},
		"maxrss_mb":          {rss, "MB"},
		"setup_s":            {k * raw["setup_s"], "s"},
	}
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// method: the smallest sample with at least a share q of the samples at
// or below it. xs need not be sorted.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
