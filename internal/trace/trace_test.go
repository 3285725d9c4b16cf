package trace

import (
	"bytes"
	"sync"
	"testing"
)

// TestWriterRoundTrip pins the event writer's round trip: events emitted
// to a LogWriter and flushed (without Close) decode unchanged and in order.
func TestWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewLogWriter(&buf, Header{BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{Step: 0, Kind: KindMove, Agent: 1, Node: 2, To: 3},
		{Step: 1, Kind: KindMeet, Node: 5, Value: 3},
		{Step: 2, Kind: KindMeasure, Value: 0.75, Extra: "connectivity"},
		{Step: 3, Kind: KindFinish},
	}
	for _, e := range events {
		w.Emit(e)
	}
	if w.Count() != len(events) {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_, recs := readAll(t, buf.Bytes())
	if len(recs) != len(events) {
		t.Fatalf("read %d records", len(recs))
	}
	for i := range events {
		if recs[i].Kind != RecordEvent || recs[i].Event != events[i] {
			t.Fatalf("record %d = %+v, want event %+v", i, recs[i], events[i])
		}
	}
}

// TestWriterClose pins that Close on a healthy writer succeeds and writes
// the buffered partial block, so its event decodes.
func TestWriterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewLogWriter(&buf, Header{})
	if err != nil {
		t.Fatal(err)
	}
	preamble := buf.Len()
	w.Emit(Event{Step: 1, Kind: KindMove})
	if err := w.Close(); err != nil {
		t.Fatalf("Close on healthy writer = %v", err)
	}
	if buf.Len() == preamble {
		t.Fatal("Close did not flush buffered events")
	}
	_, recs := readAll(t, buf.Bytes())
	if len(recs) != 1 || recs[0].Event != (Event{Step: 1, Kind: KindMove}) {
		t.Fatalf("decoded %+v after Close", recs)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Emit(Event{Kind: KindMove})
	c.Emit(Event{Kind: KindMove})
	c.Emit(Event{Kind: KindMeet})
	if c.Count(KindMove) != 2 || c.Count(KindMeet) != 1 || c.Count(KindFinish) != 0 {
		t.Fatal("counts wrong")
	}
}

func TestBuffer(t *testing.T) {
	var b Buffer
	b.Emit(Event{Step: 1, Kind: KindDeposit})
	b.Emit(Event{Step: 2, Kind: KindDeposit})
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	es := b.Events()
	es[0].Step = 99
	if b.Events()[0].Step == 99 {
		t.Fatal("Events leaked internal storage")
	}
}

func TestConcurrentEmit(t *testing.T) {
	c := NewCounter()
	var b Buffer
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				e := Event{Step: i, Kind: KindMove}
				c.Emit(e)
				b.Emit(e)
			}
		}()
	}
	wg.Wait()
	if c.Count(KindMove) != 800 || b.Len() != 800 {
		t.Fatalf("lost events: %d %d", c.Count(KindMove), b.Len())
	}
}
