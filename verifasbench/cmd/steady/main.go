// Command steady runs one or more workloads of the benchmark k times,
// each run with another seed, and prints for every metric the median,
// the quartiles, the spread (interquartile range over median) and the
// metric's bound from BENCHMARK.json. The median host-speed probe of
// every run and the unscaled times are summarized the same way, so that
// spread from host drift can be told apart from spread in the verifier. Run i uses seed 1+i and BENCHMARK.json's
// run_seconds, untraced. Run it from verifasbench/, like the other
// companion commands:
//
//	go run ./cmd/steady -workload real,synthetic,service -k 10
//
// With several workloads, run i of each comes before run i+1 of any.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func main() {
	workloads := flag.String("workload", "real", "workload to run, or a comma-separated list run in turn")
	k := flag.Int("k", 10, "runs of each workload")
	flag.Parse()
	if err := run(strings.Split(*workloads, ","), *k); err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		os.Exit(1)
	}
}

// summary collects one workload's runs.
type summary struct {
	values map[string][]float64
	units  map[string]string
}

func run(workloads []string, k int) error {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from verifasbench/: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	sums := map[string]*summary{}
	for _, w := range workloads {
		sums[w] = &summary{values: map[string][]float64{}, units: map[string]string{}}
	}
	// Run i of every workload comes before run i+1 of any, so that host
	// drift over the set falls on all workloads alike.
	for i := 0; i < k; i++ {
		for _, w := range workloads {
			if err := runOnce(w, 1+i, bf.RunSeconds, sums[w]); err != nil {
				return fmt.Errorf("%s run %d: %w", w, i, err)
			}
		}
	}
	for _, w := range workloads {
		fmt.Printf("\n%s\n%-28s %12s %12s %12s %8s %7s  %s\n", w, "metric", "q1", "median", "q3", "spread", "bound", "verdict")
		sum := sums[w]
		for _, n := range sortedKeys(sum.values) {
			row(n, sum.units[n], sum.values[n], bounds)
		}
	}
	return nil
}

// runOnce runs the workload once with the seed and adds its metrics to sum.
func runOnce(workload string, seed, seconds int, sum *summary) error {
	cmd := exec.Command("bash", "verifasbench/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = ".."
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return err
	}
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 3 {
		return fmt.Errorf("printed %d lines", len(lines))
	}
	var host struct {
		ProbeMS  float64            `json:"probe_ms"`
		Unscaled map[string]float64 `json:"unscaled"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &host); err != nil {
		return fmt.Errorf("probe line: %w", err)
	}
	sum.values["(probe_ms)"] = append(sum.values["(probe_ms)"], host.ProbeMS)
	for name, v := range host.Unscaled {
		sum.values["(unscaled) "+name] = append(sum.values["(unscaled) "+name], v)
	}
	var r runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	fmt.Printf("%s seed %d: correct=%v attempted=%d failed=%d (%.4f%%) probe_ms=%.3f\n ",
		workload, seed, r.Correct, r.Attempted, r.Failed, 100*float64(r.Failed)/float64(r.Attempted), host.ProbeMS)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		sum.values[name] = append(sum.values[name], m.Value)
		sum.units[name] = m.Unit
		fmt.Printf(" %s=%.4g", name, m.Value)
	}
	fmt.Println()
	return nil
}

// row prints one metric's quartiles, spread and, for a bounded metric,
// whether the spread is within a third of its bound, within the bound,
// or too wide.
func row(name, unit string, xs []float64, bounds map[string]float64) {
	q1, med, q3 := quartiles(xs)
	spread := 0.0
	if med != 0 {
		spread = (q3 - q1) / med
	}
	b, ok := bounds[name]
	verdict, bs := "", "-"
	if ok {
		bs = fmt.Sprintf("%.3f", b)
		switch {
		case spread <= b/3:
			verdict = "steady"
		case spread <= b:
			verdict = "within bound"
		default:
			verdict = "TOO WIDE"
		}
	}
	fmt.Printf("%-28s %12.4f %12.4f %12.4f %8.4f %7s  %s %s\n", name, q1, med, q3, spread, bs, verdict, unit)
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
