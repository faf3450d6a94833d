package jobs

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"verifas/internal/has"
)

// RefEntry is one job's reference verdict and the computations that
// decided it.
type RefEntry struct {
	Verdict string `json:"verdict"`
	// By lists the computations that agree on Verdict ("no-sp",
	// "no-dss", "no-sa", "spinlike", "hand").
	By []string `json:"by"`
}

// Reference is the reference verdict table (reference.json), written by
// cmd/reference from computations apart from the timed path.
type Reference struct {
	Note string              `json:"note"`
	Jobs map[string]RefEntry `json:"jobs"`
}

//go:embed reference.json
var referenceJSON []byte

// LoadReference decodes the reference verdict table.
func LoadReference() (*Reference, error) {
	var r Reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &r, nil
}

// Expect returns the reference verdict of every job of s, or an error
// naming the first job the table lacks.
func (r *Reference) Expect(s Set) ([]string, error) {
	out := make([]string, len(s.Jobs))
	for i, j := range s.Jobs {
		e, ok := r.Jobs[j.ID]
		if !ok {
			return nil, fmt.Errorf("reference table has no verdict for %s", j.ID)
		}
		out[i] = e.Verdict
	}
	return out, nil
}

// TaskServices returns the service propositions a run of the named task
// can take: its own opening and closing, its internal services, and the
// opening and closing of its children.
func TaskServices(sys *has.System, task string) map[string]bool {
	t, ok := sys.Task(task)
	if !ok {
		return nil
	}
	out := map[string]bool{"open:" + t.Name: true, "close:" + t.Name: true}
	for _, s := range t.Services {
		out["call:"+s.Name] = true
	}
	for _, c := range t.Children {
		out["open:"+c.Name] = true
		out["close:"+c.Name] = true
	}
	return out
}

// CheckWitness reports what is wrong with a violated verdict's
// counterexample, or "" when it is well formed: a known kind, a
// non-empty prefix, a non-empty cycle for the infinite kinds, and every
// step naming a service of the verified task.
func CheckWitness(kind string, prefix, cycle []string, services map[string]bool) string {
	switch kind {
	case "finite":
	case "cycle", "pumping":
		if len(cycle) == 0 {
			return kind + " counterexample has an empty cycle"
		}
	default:
		return fmt.Sprintf("unknown counterexample kind %q", kind)
	}
	if len(prefix) == 0 {
		return "counterexample has an empty prefix"
	}
	for _, steps := range [][]string{prefix, cycle} {
		for _, s := range steps {
			if !services[s] {
				return fmt.Sprintf("counterexample step %q is not a service of the task", s)
			}
		}
	}
	return ""
}
