// Package jobs builds the verification jobs of the benchmark workloads
// as generated .has text, and checks the verifier's answers against the
// reference verdict table.
//
// It calls only flag-free surfaces of the verifier: the workflows and
// synth generators, benchmark.Properties/CheckedProperties, spec.Print
// and spec.Parse. A job is one (file, property) pair; a file is the
// printed text of one system together with every property asked of it,
// which is also what a client sends inline to the daemon.
package jobs

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"verifas/internal/benchmark"
	"verifas/internal/core"
	"verifas/internal/has"
	"verifas/internal/spec"
	"verifas/internal/synth"
	"verifas/internal/workflows"
)

// PropertySeed is the property-instantiation seed of the template jobs:
// file i uses PropertySeed+i, as `benchrun -seed 1` does for its suites.
const PropertySeed = 1

// LimitSeconds is the per-job time limit of every timed run. The
// slowest job of any workload takes a few seconds, so no job comes near
// it.
const LimitSeconds = 60

// Source is one generated .has file.
type Source struct {
	Name string
	Text string
}

// Job is one property of one file.
type Job struct {
	// ID names the job in the reference table: "<file>/<property>".
	ID string
	// File indexes Set.Files.
	File int
	// Property is the property's name inside the file.
	Property string
}

// Set is a workload's input: the files and the jobs over them.
type Set struct {
	Files []Source
	Jobs  []Job
}

// addFile prints sys with props and appends the file and its jobs.
func (s *Set) addFile(name string, sys *has.System, props []*core.Property) {
	fi := len(s.Files)
	s.Files = append(s.Files, Source{Name: name, Text: spec.Print(&spec.File{System: sys, Properties: props})})
	for _, p := range props {
		s.Jobs = append(s.Jobs, Job{ID: name + "/" + p.Name, File: fi, Property: p.Name})
	}
}

// templateProps instantiates the 12 templates for file index i and names
// them t01..t12, in the order of benchmark.Templates.
func templateProps(sys *has.System, i int) []*core.Property {
	props := benchmark.Properties(sys, PropertySeed+int64(i))
	for k, p := range props {
		p.Name = fmt.Sprintf("t%02d", k+1)
	}
	return props
}

// Real builds the `real` workload: the hand-written workflows × 12
// templates, plus the curated properties with hand-derived verdicts
// (named "c-<name>" in their workflow's file).
func Real() Set {
	curated := map[string][]*core.Property{}
	for _, cp := range benchmark.CheckedProperties() {
		p := *cp.Prop
		p.Name = "c-" + p.Name
		curated[cp.Workflow] = append(curated[cp.Workflow], &p)
	}
	var s Set
	for i, e := range workflows.All() {
		sys := e.Build()
		s.addFile(e.Name, sys, append(templateProps(sys, i), curated[e.Name]...))
	}
	return s
}

// HandVerdicts maps the curated real jobs to their hand-derived verdicts.
func HandVerdicts() map[string]core.Verdict {
	out := map[string]core.Verdict{}
	for _, cp := range benchmark.CheckedProperties() {
		v := core.VerdictViolated
		if cp.Holds {
			v = core.VerdictHolds
		}
		out[cp.Workflow+"/c-"+cp.Prop.Name] = v
	}
	return out
}

// SynthSpec records how one synthetic system is generated.
type SynthSpec struct {
	Name   string       `json:"name"`
	Params synth.Params `json:"params"`
	Seed   int64        `json:"seed"`
}

// Excluded records a candidate job left out of the synthetic list.
type Excluded struct {
	ID     string `json:"id"`
	Reason string `json:"reason"`
}

// SynthList is the recorded synthetic job list (synthetic_jobs.json),
// written by cmd/synthlist.
type SynthList struct {
	// GeneratorSeed is the seed the specs derive from.
	GeneratorSeed int64 `json:"generator_seed"`
	// Rule states the selection rule in words.
	Rule string `json:"rule"`
	// MaxSeconds is the rule's time threshold: a kept job was decided
	// within it, and a timed run flags any job that exceeds it.
	MaxSeconds float64     `json:"max_seconds"`
	Specs      []SynthSpec `json:"specs"`
	// Jobs lists the kept job IDs in order.
	Jobs     []string   `json:"jobs"`
	Excluded []Excluded `json:"excluded"`
}

//go:embed synthetic_jobs.json
var synthListJSON []byte

// LoadSynthList decodes the recorded synthetic job list.
func LoadSynthList() (*SynthList, error) {
	var l SynthList
	if err := json.Unmarshal(synthListJSON, &l); err != nil {
		return nil, fmt.Errorf("synthetic_jobs.json: %w", err)
	}
	return &l, nil
}

// SynthCandidates builds every candidate synthetic job: n systems from
// the generator tiers (the sizes `benchrun` sweeps) with seeds derived
// from seed, × 12 templates.
func SynthCandidates(n int, seed int64) ([]SynthSpec, Set) {
	var specs []SynthSpec
	for i := 0; i < n; i++ {
		specs = append(specs, SynthSpec{
			Name:   fmt.Sprintf("synth-%02d", i),
			Params: synthTiers[i%len(synthTiers)],
			Seed:   seed + int64(i)*104729,
		})
	}
	return specs, synthSet(specs, nil)
}

// synthTiers are the generator sizes, from small to the paper's full
// synthetic size.
var synthTiers = []synth.Params{
	{Relations: 2, Tasks: 2, VarsPerTask: 4, ServicesPerTask: 3, AtomsPerCond: 2, NonKeyAttrs: 2, Constants: 3},
	{Relations: 3, Tasks: 2, VarsPerTask: 6, ServicesPerTask: 5, AtomsPerCond: 3, NonKeyAttrs: 2, Constants: 3},
	{Relations: 3, Tasks: 3, VarsPerTask: 8, ServicesPerTask: 8, AtomsPerCond: 3, NonKeyAttrs: 3, Constants: 4},
	{Relations: 4, Tasks: 4, VarsPerTask: 10, ServicesPerTask: 10, AtomsPerCond: 4, NonKeyAttrs: 3, Constants: 4},
	{Relations: 5, Tasks: 5, VarsPerTask: 12, ServicesPerTask: 12, AtomsPerCond: 4, NonKeyAttrs: 4, Constants: 5},
	{Relations: 5, Tasks: 5, VarsPerTask: 15, ServicesPerTask: 15, AtomsPerCond: 5, NonKeyAttrs: 4, Constants: 5},
}

// synthSet generates the systems of specs and keeps the jobs whose IDs
// are in keep (all jobs when keep is nil). A file with no kept job is
// left out.
func synthSet(specs []SynthSpec, keep map[string]bool) Set {
	var s Set
	for i, sp := range specs {
		sys := synth.GenerateValid(sp.Params, sp.Seed, 3, 20)
		var kept []*core.Property
		for _, p := range templateProps(sys, i) {
			if keep == nil || keep[sp.Name+"/"+p.Name] {
				kept = append(kept, p)
			}
		}
		if len(kept) > 0 {
			s.addFile(sp.Name, sys, kept)
		}
	}
	return s
}

// Synthetic builds the `synthetic` workload from the recorded list.
func Synthetic(l *SynthList) (Set, error) {
	keep := map[string]bool{}
	for _, id := range l.Jobs {
		keep[id] = true
	}
	s := synthSet(l.Specs, keep)
	if len(s.Jobs) != len(l.Jobs) {
		return Set{}, fmt.Errorf("synthetic list names %d jobs, generator yields %d of them", len(l.Jobs), len(s.Jobs))
	}
	return s, nil
}

// Parsed is a file after spec.Parse, with its properties by name.
type Parsed struct {
	File  *spec.File
	Props map[string]*core.Property
}

// Parse parses every file of the set.
func (s Set) Parse() ([]Parsed, error) {
	out := make([]Parsed, len(s.Files))
	for i, src := range s.Files {
		f, err := spec.Parse(src.Text)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", src.Name, err)
		}
		props := map[string]*core.Property{}
		for _, p := range f.Properties {
			props[p.Name] = p
		}
		out[i] = Parsed{File: f, Props: props}
	}
	return out, nil
}
