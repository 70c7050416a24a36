package ensemble

import "gcbench/internal/behavior"

// EvalAdd returns the coverage the ensemble would have with p appended,
// bit-identical to a fresh est.Coverage(members+p). No state is mutated.
func (ic *IncrementalCoverage) EvalAdd(p behavior.Vector) float64 {
	return ic.finish(ic.evalAdd(p))
}
