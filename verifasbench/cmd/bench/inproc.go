package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"verifas/internal/core"
	"verifas/verifasbench/jobs"
)

// A run generates and parses its inputs at least setupMinReps times and
// for at least setupMinTime; setup_s is the mean CPU time of one
// generation and parse. The mean, not the median: a garbage collection
// falls on some repetitions and not on others, and the median of such a
// two-humped sample jumps between the humps from run to run.
const (
	setupMinReps = 3
	setupMinTime = time.Second
)

// loadSet generates the named in-process workload's files.
func loadSet(workload string) (jobs.Set, float64, error) {
	if workload == "real" {
		return jobs.Real(), float64(jobs.LimitSeconds) / 4, nil
	}
	l, err := jobs.LoadSynthList()
	if err != nil {
		return jobs.Set{}, 0, err
	}
	s, err := jobs.Synthetic(l)
	return s, l.MaxSeconds, err
}

// setup generates and parses the workload repeatedly, returning the last
// result and the mean CPU times.
func setup(workload string, pr *probe) (set jobs.Set, parsed []jobs.Parsed, flagSec, setupS, parseMS float64, err error) {
	var setups, parses []float64
	for begin := time.Now(); len(setups) < setupMinReps || time.Since(begin) < setupMinTime; {
		pr.maybe()
		start := selfCPU()
		if set, flagSec, err = loadSet(workload); err != nil {
			return
		}
		pstart := selfCPU()
		if parsed, err = set.Parse(); err != nil {
			return
		}
		end := selfCPU()
		parses = append(parses, ms(end-pstart))
		setups = append(setups, (end - start).Seconds())
	}
	return set, parsed, flagSec, mean(setups), mean(parses), nil
}

// checker tallies the checks of one run's outputs.
type checker struct {
	attempted, failed int
	wrong             int
	shown             map[string]int
}

// problem prints the first few problems of each kind to stderr.
func (c *checker) problem(kind, format string, args ...any) {
	if c.shown == nil {
		c.shown = map[string]int{}
	}
	if c.shown[kind] < 10 {
		fmt.Fprintf(os.Stderr, "%s: %s\n", kind, fmt.Sprintf(format, args...))
		c.shown[kind]++
	}
}

// verdict checks one answer: a verdict other than the reference makes
// the run incorrect; a malformed counterexample fails the job.
func (c *checker) verdict(id, got, want, witnessProblem string) {
	c.attempted++
	switch {
	case got != want:
		c.wrong++
		c.problem("WRONG", "%s: verdict %s, reference %s", id, got, want)
	case witnessProblem != "":
		c.failed++
		c.problem("FAILED", "%s: %s", id, witnessProblem)
	}
}

func coreWitness(v *core.Violation, services map[string]bool) string {
	if v == nil {
		return "violated verdict without a counterexample"
	}
	names := func(steps []core.Step) []string {
		out := make([]string, len(steps))
		for i, s := range steps {
			out[i] = s.Service.String()
		}
		return out
	}
	return jobs.CheckWitness(v.Kind, names(v.Prefix), names(v.Cycle), services)
}

// runInProcess runs the real or synthetic workload: whole passes over
// every job, each pass in a seeded order, one job at a time on this
// goroutine, until o.seconds are spent.
func runInProcess(o options, pr *probe) (*report, error) {
	ref, err := jobs.LoadReference()
	if err != nil {
		return nil, err
	}
	set, parsed, flagSec, setupS, parseMS, err := setup(o.workload, pr)
	if err != nil {
		return nil, err
	}
	expect, err := ref.Expect(set)
	if err != nil {
		return nil, err
	}
	services := make([]map[string]bool, len(set.Jobs))
	for i, j := range set.Jobs {
		p := parsed[j.File]
		services[i] = jobs.TaskServices(p.File.System, p.Props[j.Property].Task)
	}

	var tr *tracer
	opts := core.Options{}
	if o.trace {
		tr = newTracer()
		opts.Observer = tr
		if err := tr.startProfile(); err != nil {
			return nil, err
		}
	}
	var chk checker
	var walls, cpus, costs []float64
	rng := rand.New(rand.NewSource(o.seed))
	limit := time.Duration(jobs.LimitSeconds) * time.Second
	begin := time.Now()
	for pass := 0; pass == 0 || time.Since(begin).Seconds() < o.seconds; pass++ {
		order := rng.Perm(len(set.Jobs))
		cpu0 := selfCPU()
		t0 := time.Now()
		for _, i := range order {
			j := set.Jobs[i]
			p := parsed[j.File]
			pr.maybe()
			ctx, cancel := context.WithTimeout(context.Background(), limit)
			js, jc := time.Now(), selfCPU()
			res, err := core.Verify(ctx, p.File.System, p.Props[j.Property], opts)
			el, cost := time.Since(js), selfCPU()-jc
			cancel()
			costs = append(costs, ms(cost))
			if el.Seconds() > flagSec {
				fmt.Fprintf(os.Stderr, "FLAG: %s took %.2fs, over %.2fs (limit %ds)\n", j.ID, el.Seconds(), flagSec, jobs.LimitSeconds)
			}
			if err != nil {
				chk.verdict(j.ID, "error: "+err.Error(), expect[i], "")
				continue
			}
			var wp string
			if res.Verdict == core.VerdictViolated {
				wp = coreWitness(res.Violation, services[i])
			}
			chk.verdict(j.ID, res.Verdict.String(), expect[i], wp)
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (selfCPU() - cpu0).Seconds())
		if tr != nil {
			tr.endPass()
		}
	}
	rss := selfPeakRSSMB()
	rep := &report{Correct: chk.wrong == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(os.Stderr, "%s: %d passes of %d jobs, pass wall %v, pass CPU %v\n", o.workload, len(walls), len(set.Jobs), walls, cpus)
	if !o.trace {
		rep.Metrics = endToEnd(cpus, costs, rss, setupS, pr)
		return rep, nil
	}
	layers, err := tr.finish(len(walls))
	if err != nil {
		return nil, err
	}
	layers["spec.parse_ms"] = metric{parseMS, "ms"}
	layers["trace.wall_s"] = metric{median(walls), "s"}
	translateMS, buchiStates := translateAll(set, parsed)
	layers["ltl.translate_ms"] = metric{translateMS, "ms"}
	layers["ltl.buchi_states"] = metric{buchiStates, "count"}
	addZeros(layers, serviceLayers)
	rep.Metrics = layers
	return rep, nil
}
