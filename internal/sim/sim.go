// Package sim provides the time-step run loop shared by both scenarios.
// A run steps its agents sequentially; concurrency lives one level up, in
// internal/parallel, which runs whole independent runs side by side.
package sim

// StepFunc advances a simulation one step and reports whether the run is
// finished.
type StepFunc func(step int) (done bool)

// Run drives step 0..maxSteps-1, stopping early when fn reports done. It
// returns the number of steps executed and whether fn completed before the
// step budget ran out.
func Run(maxSteps int, fn StepFunc) (steps int, completed bool) {
	for step := 0; step < maxSteps; step++ {
		if fn(step) {
			return step + 1, true
		}
	}
	return maxSteps, false
}
