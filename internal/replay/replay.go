// Package replay turns a recorded binary simulation log back into worlds
// and analysable structure: per-step world reconstruction, lockstep
// verification against a fresh simulation, streaming summaries (per-kind
// tallies, meeting-size distributions, agent activity, measurement
// curves), and the JSON Lines export of the event stream. It is the
// analysis layer behind cmd/replay and a building block for custom
// post-processing.
package replay

import (
	"fmt"
	"sort"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Summary condenses a trace.
type Summary struct {
	// Events is the total event count, Steps the number of simulated
	// steps covered (last step + 1).
	Events, Steps int
	// ByKind tallies events per kind.
	ByKind map[trace.Kind]int
	// MeetingSizes maps meeting size (number of co-located agents) to
	// occurrence count.
	MeetingSizes map[int]int
	// AgentMoves maps agent ID to its migration count.
	AgentMoves map[int32]int
	// Measures is the primary measurement curve: the values of the
	// first-seen measure name, in recorded order.
	Measures []float64
	// MeasureName is the Extra label of the primary measurements (if any).
	MeasureName string
	// MeasureNames lists every distinct measure name in first-seen order —
	// harnesses emit several per step (e.g. "connectivity", "end-to-end",
	// "ideal").
	MeasureNames []string
	// MeasuresByName holds each named measurement curve in recorded order.
	MeasuresByName map[string][]float64
	// DepositsPerStep is the number of route deposits in each step
	// (length = last step with a deposit + 1; empty without deposits).
	DepositsPerStep []int
	// FaultSteps lists the steps at which fault events fired, in recorded
	// order (one per fault epoch the harness reacted to).
	FaultSteps []int
	// FinishStep is the step of the finish event, or -1.
	FinishStep int
}

// SummaryBuilder accumulates a Summary one event at a time. It never
// materialises the event stream, so it scales to logs far larger than
// memory: feed it from trace.LogReader.Scan (or any ordered event source)
// and call Summary when done. The zero value is not ready; use
// NewSummaryBuilder.
type SummaryBuilder struct {
	s Summary
}

// NewSummaryBuilder returns an empty builder.
func NewSummaryBuilder() *SummaryBuilder {
	return &SummaryBuilder{s: Summary{
		ByKind:         make(map[trace.Kind]int),
		MeetingSizes:   make(map[int]int),
		AgentMoves:     make(map[int32]int),
		MeasuresByName: make(map[string][]float64),
		FinishStep:     -1,
	}}
}

// Add folds one event into the summary. Events must arrive in recorded
// order.
func (b *SummaryBuilder) Add(e trace.Event) {
	s := &b.s
	s.Events++
	if e.Step+1 > s.Steps {
		s.Steps = e.Step + 1
	}
	s.ByKind[e.Kind]++
	switch e.Kind {
	case trace.KindMeet:
		s.MeetingSizes[int(e.Value)]++
	case trace.KindMove:
		s.AgentMoves[e.Agent]++
	case trace.KindDeposit:
		for len(s.DepositsPerStep) <= e.Step {
			s.DepositsPerStep = append(s.DepositsPerStep, 0)
		}
		s.DepositsPerStep[e.Step]++
	case trace.KindMeasure:
		if s.MeasureName == "" {
			s.MeasureName = e.Extra
		}
		if e.Extra == s.MeasureName {
			s.Measures = append(s.Measures, e.Value)
		}
		if _, seen := s.MeasuresByName[e.Extra]; !seen {
			s.MeasureNames = append(s.MeasureNames, e.Extra)
		}
		s.MeasuresByName[e.Extra] = append(s.MeasuresByName[e.Extra], e.Value)
	case trace.KindFault:
		s.FaultSteps = append(s.FaultSteps, e.Step)
	case trace.KindFinish:
		s.FinishStep = e.Step
	}
}

// Summary returns the accumulated summary. The builder may keep absorbing
// events afterwards; the returned value shares the builder's storage.
func (b *SummaryBuilder) Summary() Summary { return b.s }

// Recovery computes post-fault reconvergence statistics for the named
// measurement curve (Summary.MeasureName when name is empty), using the
// recorded fault steps. The harness emits its fault event at the top of
// the step on which it reacts, before that step's measurement settles the
// response — so the first post-fault measurement the live harness accounts
// is the step after the recorded one, and the recorded step itself is the
// baseline. Shifting each fault step by +1 reproduces the live harness's
// Recovery accounting bit for bit (pinned by TestLogRoundTripFaultedRuns).
func (s Summary) Recovery(name string, tol float64) (stats.RecoveryStats, error) {
	if name == "" {
		name = s.MeasureName
	}
	series, ok := s.MeasuresByName[name]
	if !ok {
		return stats.RecoveryStats{}, fmt.Errorf("replay: no measurement curve named %q in trace", name)
	}
	shifted := make([]int, len(s.FaultSteps))
	for i, fs := range s.FaultSteps {
		shifted[i] = fs + 1
	}
	return stats.Recovery(series, shifted, tol), nil
}

// MeetingSizesSorted returns the distribution as (size, count) pairs in
// ascending size order.
func (s Summary) MeetingSizesSorted() (sizes []int, counts []int) {
	for sz := range s.MeetingSizes {
		sizes = append(sizes, sz)
	}
	sort.Ints(sizes)
	counts = make([]int, len(sizes))
	for i, sz := range sizes {
		counts[i] = s.MeetingSizes[sz]
	}
	return sizes, counts
}

// MoveStats returns min/max/total migrations across agents.
func (s Summary) MoveStats() (agents, total, min, max int) {
	min = -1
	for _, m := range s.AgentMoves {
		agents++
		total += m
		if min < 0 || m < min {
			min = m
		}
		if m > max {
			max = m
		}
	}
	if min < 0 {
		min = 0
	}
	return agents, total, min, max
}

// String renders a compact one-line description.
func (s Summary) String() string {
	return fmt.Sprintf("%d events over %d steps (%d moves, %d meetings, %d deposits, %d measures)",
		s.Events, s.Steps, s.ByKind[trace.KindMove], s.ByKind[trace.KindMeet],
		s.ByKind[trace.KindDeposit], s.ByKind[trace.KindMeasure])
}
