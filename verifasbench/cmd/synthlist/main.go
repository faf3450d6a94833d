// Command synthlist regenerates the synthetic job list
// (jobs/synthetic_jobs.json) from the generator seed and the selection
// rule: every candidate job (24 generated systems × 12 templates) is
// verified once with the default VERIFAS options, and a job is kept when
// it is decided within maxSeconds, a fixed fraction of the per-job limit
// of the timed runs. Excluded jobs are listed with the reason.
//
//	go run ./cmd/synthlist > jobs/synthetic_jobs.json
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"verifas/internal/core"
	"verifas/verifasbench/jobs"
)

// The selection: generator seed, generated systems (each asked the 12
// templates), the time within which a kept job is decided, and the time
// limit of one candidate's selection run.
const (
	seed       = 1
	nspecs     = 24
	maxSeconds = float64(jobs.LimitSeconds) / 120
	probe      = 4 * time.Second
)

func main() {
	specs, set := jobs.SynthCandidates(nspecs, seed)
	parsed, err := set.Parse()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	l := jobs.SynthList{
		GeneratorSeed: seed,
		Rule: fmt.Sprintf("decided by VERIFAS with default options within %gs, 1/%g of the %ds job limit "+
			"(selection run limited to %s)", maxSeconds, jobs.LimitSeconds/maxSeconds, jobs.LimitSeconds, probe),
		MaxSeconds: maxSeconds,
		Specs:      specs,
	}
	for _, j := range set.Jobs {
		p := parsed[j.File]
		ctx, cancel := context.WithTimeout(context.Background(), probe)
		start := time.Now()
		res, err := core.Verify(ctx, p.File.System, p.Props[j.Property], core.Options{})
		el := time.Since(start)
		cancel()
		var reason string
		switch {
		case err != nil:
			reason = "error: " + err.Error()
		case res.Verdict != core.VerdictHolds && res.Verdict != core.VerdictViolated:
			reason = fmt.Sprintf("undecided within %s (%s)", probe, res.Verdict)
		case el.Seconds() > maxSeconds:
			reason = fmt.Sprintf("took %.2fs > %gs", el.Seconds(), maxSeconds)
		}
		states := 0
		if res != nil {
			states = res.Stats.StatesExplored()
		}
		fmt.Fprintf(os.Stderr, "%-16s %8.3fs %8d states  %s\n", j.ID, el.Seconds(), states, reason)
		if reason != "" {
			l.Excluded = append(l.Excluded, jobs.Excluded{ID: j.ID, Reason: reason})
			continue
		}
		l.Jobs = append(l.Jobs, j.ID)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(l); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "kept %d of %d jobs\n", len(l.Jobs), len(set.Jobs))
}
