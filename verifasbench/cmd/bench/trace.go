package main

import (
	"bytes"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"verifas/internal/core"
	"verifas/internal/ltl"
	"verifas/verifasbench/jobs"
)

// rtNames are the runtime/metrics read at every phase boundary.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// passTotals are one pass's per-layer sums.
type passTotals struct {
	compile, static, reach, rr               time.Duration
	states, rrStates, pruned, skipped, accel int
	memBytes                                 int64
	searchStates                             int
	rt                                       [4]float64 // deltas of rtNames
}

// tracer is the core.Observer of the instrumented run. It sums the phase
// statistics core.Verify reports and the runtime counters' growth inside
// each phase, and keeps one passTotals per pass.
type tracer struct {
	cur     passTotals
	passes  []passTotals
	samples []metrics.Sample
	start   [4]float64
	profile bytes.Buffer
}

func newTracer() *tracer {
	t := &tracer{samples: make([]metrics.Sample, len(rtNames))}
	for i, n := range rtNames {
		t.samples[i].Name = n
	}
	return t
}

func (t *tracer) readRT() [4]float64 {
	metrics.Read(t.samples)
	var out [4]float64
	for i, s := range t.samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

func (t *tracer) PhaseStart(core.Phase) { t.start = t.readRT() }

func (t *tracer) PhaseEnd(p core.Phase, ps core.PhaseStats) {
	now := t.readRT()
	for i := range now {
		t.cur.rt[i] += now[i] - t.start[i]
	}
	c := &t.cur
	switch p {
	case core.PhaseCompile:
		c.compile += ps.Elapsed
	case core.PhaseStatic:
		c.static += ps.Elapsed
	case core.PhaseReach:
		c.reach += ps.Elapsed
		c.states += ps.States
	case core.PhaseRR, core.PhaseRRConfirm:
		c.rr += ps.Elapsed
		c.rrStates += ps.States
	}
	c.pruned += ps.Pruned
	c.skipped += ps.Skipped
	c.accel += ps.Accelerations
	c.memBytes += ps.MemBytes
	c.searchStates += ps.States
}

func (t *tracer) Progress(core.ProgressEvent) {}
func (t *tracer) Verdict(core.VerdictEvent)   {}

func (t *tracer) endPass() {
	t.passes = append(t.passes, t.cur)
	t.cur = passTotals{}
}

func (t *tracer) startProfile() error { return pprof.StartCPUProfile(&t.profile) }

// perPass returns the median over passes of f.
func (t *tracer) perPass(f func(p passTotals) float64) float64 {
	var xs []float64
	for _, p := range t.passes {
		xs = append(xs, f(p))
	}
	return median(xs)
}

// profiledPackages maps self-time metrics to the packages they charge.
var profiledPackages = map[string]string{
	"setindex.self_s": "verifas/internal/setindex",
	"symbolic.self_s": "verifas/internal/symbolic",
	"maxflow.self_s":  "verifas/internal/maxflow",
	"vass.self_s":     "verifas/internal/vass",
	"core.self_s":     "verifas/internal/core",
}

// finish stops the profile and returns the per-layer metrics, per pass.
func (t *tracer) finish(passes int) (map[string]metric, error) {
	pprof.StopCPUProfile()
	self, err := selfCPUByPackage(t.profile.Bytes())
	if err != nil {
		return nil, err
	}
	dur := func(f func(p passTotals) time.Duration) func(p passTotals) float64 {
		return func(p passTotals) float64 { return f(p).Seconds() }
	}
	out := map[string]metric{
		"core.compile_ms":    {1000 * t.perPass(dur(func(p passTotals) time.Duration { return p.compile })), "ms"},
		"static.analysis_ms": {1000 * t.perPass(dur(func(p passTotals) time.Duration { return p.static })), "ms"},
		"vass.reach_s":       {t.perPass(dur(func(p passTotals) time.Duration { return p.reach })), "s"},
		"vass.rr_s":          {t.perPass(dur(func(p passTotals) time.Duration { return p.rr })), "s"},
		"vass.states":        {t.perPass(func(p passTotals) float64 { return float64(p.states) }), "count"},
		"vass.rr_states":     {t.perPass(func(p passTotals) float64 { return float64(p.rrStates) }), "count"},
		"vass.pruned":        {t.perPass(func(p passTotals) float64 { return float64(p.pruned) }), "count"},
		"vass.skipped":       {t.perPass(func(p passTotals) float64 { return float64(p.skipped) }), "count"},
		"vass.accelerations": {t.perPass(func(p passTotals) float64 { return float64(p.accel) }), "count"},
		"runtime.alloc_mb":   {t.perPass(func(p passTotals) float64 { return p.rt[0] / (1 << 20) }), "MB"},
		"runtime.gc_cycles":  {t.perPass(func(p passTotals) float64 { return p.rt[2] }), "count"},
		"runtime.gc_cpu_s":   {t.perPass(func(p passTotals) float64 { return p.rt[3] }), "s"},
		"runtime.allocs_per_state": {t.perPass(func(p passTotals) float64 {
			return ratio(p.rt[1], float64(p.searchStates))
		}), "count"},
		"vass.states_per_s": {t.perPass(func(p passTotals) float64 {
			return ratio(float64(p.searchStates), (p.reach + p.rr).Seconds())
		}), "1/s"},
		"vass.mem_bytes_per_state": {t.perPass(func(p passTotals) float64 {
			return ratio(float64(p.memBytes), float64(p.searchStates))
		}), "B"},
	}
	for name, pkg := range profiledPackages {
		out[name] = metric{self[pkg] / float64(passes), "s"}
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// translateAll times a direct ltl.Translate of every job's negated
// formula (the automaton core.Verify builds) and counts its states.
func translateAll(set jobs.Set, parsed []jobs.Parsed) (float64, float64) {
	var total time.Duration
	states := 0
	for _, j := range set.Jobs {
		f := ltl.Not(parsed[j.File].Props[j.Property].Formula)
		start := time.Now()
		b := ltl.Translate(f)
		total += time.Since(start)
		states += b.NumStates()
	}
	return ms(total), float64(states)
}

// inProcessLayers and serviceLayers are the per-layer metrics each kind
// of workload measures. A traced run reports the other kind's metrics as
// 0: that layer did no work in it.
var inProcessLayers = map[string]string{
	"spec.parse_ms": "ms", "trace.wall_s": "s", "ltl.translate_ms": "ms", "ltl.buchi_states": "count",
	"core.compile_ms": "ms", "static.analysis_ms": "ms", "vass.reach_s": "s", "vass.rr_s": "s",
	"vass.states": "count", "vass.rr_states": "count", "vass.pruned": "count", "vass.skipped": "count",
	"vass.accelerations": "count", "vass.states_per_s": "1/s", "vass.mem_bytes_per_state": "B",
	"runtime.alloc_mb": "MB", "runtime.allocs_per_state": "count", "runtime.gc_cycles": "count",
	"runtime.gc_cpu_s": "s", "setindex.self_s": "s", "symbolic.self_s": "s", "maxflow.self_s": "s",
	"vass.self_s": "s", "core.self_s": "s",
}

var serviceLayers = map[string]string{
	"service.submit_ms_p50": "ms", "service.hit_memory_ms_p50": "ms", "service.hit_disk_ms_p50": "ms",
	"service.miss_ms_p50": "ms", "service.engine_runs": "count", "store.hits_memory": "count",
	"store.hits_disk": "count", "store.misses": "count", "store.evictions": "count",
}

func addZeros(m map[string]metric, layers map[string]string) {
	for name, unit := range layers {
		if _, ok := m[name]; !ok {
			m[name] = metric{0, unit}
		}
	}
}
