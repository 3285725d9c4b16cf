package replay_test

import (
	"testing"

	"repro/internal/trace"
)

func sampleEvents() []trace.Event {
	return []trace.Event{
		{Step: 0, Kind: trace.KindMeet, Node: 5, Value: 2},
		{Step: 0, Kind: trace.KindMove, Agent: 0, Node: 5, To: 6},
		{Step: 0, Kind: trace.KindMove, Agent: 1, Node: 5, To: 7},
		{Step: 0, Kind: trace.KindMeasure, Value: 0.1, Extra: "connectivity"},
		{Step: 1, Kind: trace.KindMove, Agent: 0, Node: 6, To: 7},
		{Step: 1, Kind: trace.KindDeposit, Agent: 0, Node: 7, To: 2, Value: 3},
		{Step: 1, Kind: trace.KindMeasure, Value: 0.4, Extra: "connectivity"},
		{Step: 2, Kind: trace.KindMeet, Node: 7, Value: 3},
		{Step: 2, Kind: trace.KindDeposit, Agent: 1, Node: 7, To: 2, Value: 2},
		{Step: 2, Kind: trace.KindMeasure, Value: 0.8, Extra: "connectivity"},
		{Step: 2, Kind: trace.KindFinish},
	}
}

func TestSummarize(t *testing.T) {
	s := summarize(sampleEvents())
	if s.Events != 11 || s.Steps != 3 {
		t.Fatalf("events=%d steps=%d", s.Events, s.Steps)
	}
	if s.ByKind[trace.KindMove] != 3 || s.ByKind[trace.KindMeet] != 2 {
		t.Fatalf("byKind = %v", s.ByKind)
	}
	if s.MeetingSizes[2] != 1 || s.MeetingSizes[3] != 1 {
		t.Fatalf("meeting sizes = %v", s.MeetingSizes)
	}
	if s.AgentMoves[0] != 2 || s.AgentMoves[1] != 1 {
		t.Fatalf("agent moves = %v", s.AgentMoves)
	}
	if len(s.Measures) != 3 || s.Measures[2] != 0.8 {
		t.Fatalf("measures = %v", s.Measures)
	}
	if s.MeasureName != "connectivity" {
		t.Fatalf("measure name = %q", s.MeasureName)
	}
	if d := s.DepositsPerStep; len(d) != 3 || d[0] != 0 || d[1] != 1 || d[2] != 1 {
		t.Fatalf("deposits per step = %v", d)
	}
	if s.FinishStep != 2 {
		t.Fatalf("finish = %d", s.FinishStep)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

// TestDepositsPerStep pins the per-step route-deposit counts the summary
// feeds to replay -summary's sparkline: steps without deposits read zero,
// and a stream without deposits yields no series.
func TestDepositsPerStep(t *testing.T) {
	d := summarize(sampleEvents()).DepositsPerStep
	if len(d) != 3 || d[0] != 0 || d[1] != 1 || d[2] != 1 {
		t.Fatalf("deposits = %v", d)
	}
	if got := summarize(nil).DepositsPerStep; len(got) != 0 {
		t.Fatalf("empty deposits = %v", got)
	}
	gap := summarize([]trace.Event{
		{Step: 4, Kind: trace.KindDeposit},
		{Step: 4, Kind: trace.KindDeposit},
		{Step: 1, Kind: trace.KindDeposit},
		{Step: 6, Kind: trace.KindMove},
	}).DepositsPerStep
	if len(gap) != 5 || gap[0] != 0 || gap[1] != 1 || gap[2] != 0 || gap[3] != 0 || gap[4] != 2 {
		t.Fatalf("deposits with gaps = %v", gap)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := summarize(nil)
	if s.Events != 0 || s.Steps != 0 || s.FinishStep != -1 || len(s.DepositsPerStep) != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestMeetingSizesSorted(t *testing.T) {
	s := summarize(sampleEvents())
	sizes, counts := s.MeetingSizesSorted()
	if len(sizes) != 2 || sizes[0] != 2 || sizes[1] != 3 {
		t.Fatalf("sizes = %v", sizes)
	}
	if counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestMoveStats(t *testing.T) {
	s := summarize(sampleEvents())
	agents, total, min, max := s.MoveStats()
	if agents != 2 || total != 3 || min != 1 || max != 2 {
		t.Fatalf("stats = %d %d %d %d", agents, total, min, max)
	}
	empty := summarize(nil)
	if _, _, min, _ := empty.MoveStats(); min != 0 {
		t.Fatal("empty min should be 0")
	}
}
