// Command reference remakes the expected verdict of every `real` and
// `synthetic` job from computations apart from the timed path, and
// writes the reference table (jobs/reference.json):
//
//   - VERIFAS with ⪯ pruning off (no-sp), with the §3.6 indexes off
//     (no-dss) and with static analysis off (no-sa); each switch is
//     verdict-preserving by §3 of the paper;
//   - the spin-like baseline, whose violations are a lower bound (used
//     only on systems without artifact relations, which it ignores);
//   - the hand-derived verdicts of the curated real properties.
//
// A job that one computation does not decide within its limit rests on
// those that do. The command fails, and writes nothing, on any
// disagreement or on a job no computation decides.
//
//	go run ./cmd/reference > jobs/reference.json
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"verifas/internal/core"
	"verifas/internal/has"
	"verifas/internal/spinlike"
	"verifas/verifasbench/jobs"
)

type computation struct {
	name   string
	limit  time.Duration
	verify func(ctx context.Context, sys *has.System, p *core.Property) (core.Verdict, error)
}

func verifas(opts core.Options) func(context.Context, *has.System, *core.Property) (core.Verdict, error) {
	return func(ctx context.Context, sys *has.System, p *core.Property) (core.Verdict, error) {
		res, err := core.Verify(ctx, sys, p, opts)
		if err != nil {
			return core.VerdictUnknown, err
		}
		return res.Verdict, nil
	}
}

// spinViolations keeps only the baseline's violations, and only on
// systems without artifact relations: its "holds" is bounded, and on a
// system with relations it answers for the set-free abstraction.
func spinViolations(ctx context.Context, sys *has.System, p *core.Property) (core.Verdict, error) {
	for _, t := range sys.Tasks() {
		if len(t.Relations) > 0 {
			return core.VerdictUnknown, nil
		}
	}
	res, err := spinlike.Verify(ctx, sys, &spinlike.Property{
		Task: p.Task, Globals: p.Globals, Conds: p.Conds, Formula: p.Formula,
	}, spinlike.Options{})
	if err != nil || res.Verdict != core.VerdictViolated {
		return core.VerdictUnknown, err
	}
	return core.VerdictViolated, nil
}

type task struct {
	job  jobs.Job
	sys  *has.System
	prop *core.Property
}

// The time limit of one VERIFAS-variant run and of one spin-like run,
// and how many jobs are verified at once.
const (
	limit     = 120 * time.Second
	spinLimit = 10 * time.Second
	workers   = 2
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reference:", err)
		os.Exit(1)
	}
}

func run() error {
	comps := []computation{
		{"no-sp", limit, verifas(core.Options{NoStatePruning: true})},
		{"no-dss", limit, verifas(core.Options{NoIndexes: true})},
		{"no-sa", limit, verifas(core.Options{NoStaticAnalysis: true})},
		{"spinlike", spinLimit, spinViolations},
	}
	list, err := jobs.LoadSynthList()
	if err != nil {
		return err
	}
	synthetic, err := jobs.Synthetic(list)
	if err != nil {
		return err
	}
	var tasks []task
	for _, set := range []jobs.Set{jobs.Real(), synthetic} {
		parsed, err := set.Parse()
		if err != nil {
			return err
		}
		for _, j := range set.Jobs {
			p := parsed[j.File]
			tasks = append(tasks, task{job: j, sys: p.File.System, prop: p.Props[j.Property]})
		}
	}

	// votes[i][c] is computation c's verdict on task i.
	votes := make([][]core.Verdict, len(tasks))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t := tasks[i]
				vs := make([]core.Verdict, len(comps))
				for c, comp := range comps {
					ctx, cancel := context.WithTimeout(context.Background(), comp.limit)
					start := time.Now()
					v, err := comp.verify(ctx, t.sys, t.prop)
					cancel()
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("%s on %s: %w", comp.name, t.job.ID, err)
						}
						mu.Unlock()
					}
					vs[c] = v
					fmt.Fprintf(os.Stderr, "%-40s %-8s %-10s %.2fs\n", t.job.ID, comp.name, v, time.Since(start).Seconds())
				}
				votes[i] = vs
			}
		}()
	}
	for i := range tasks {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	hand := jobs.HandVerdicts()
	ref := jobs.Reference{
		Note: "Expected verdicts remade by cmd/reference: VERIFAS with pruning, indexes or static analysis " +
			"off, spin-like violations on systems without artifact relations, and hand-derived verdicts.",
		Jobs: map[string]jobs.RefEntry{},
	}
	var problems []string
	for i, t := range tasks {
		decided := map[core.Verdict][]string{}
		for c, v := range votes[i] {
			if v == core.VerdictHolds || v == core.VerdictViolated {
				decided[v] = append(decided[v], comps[c].name)
			}
		}
		if v, ok := hand[t.job.ID]; ok {
			decided[v] = append(decided[v], "hand")
		}
		switch len(decided) {
		case 0:
			problems = append(problems, t.job.ID+": no computation decides it")
		case 1:
			for v, by := range decided {
				ref.Jobs[t.job.ID] = jobs.RefEntry{Verdict: v.String(), By: by}
			}
		default:
			problems = append(problems, fmt.Sprintf("%s: disagreement: holds by %v, violated by %v",
				t.job.ID, decided[core.VerdictHolds], decided[core.VerdictViolated]))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("%d jobs without a reference verdict:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return enc.Encode(ref)
}
