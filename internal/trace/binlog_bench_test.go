package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"
)

// benchStream synthesises a routing-shaped trace: per step ~agents moves,
// a trickle of deposits and meetings, and three measurement curves — plus
// a world-delta stream (mobile halves of a 250-node fleet under
// constant-velocity motion and linear battery drain) matching what the
// harness records. Deterministic by construction.
func benchStream(steps, agents int) ([]Event, []WorldDelta) {
	var events []Event
	var deltas []WorldDelta
	const nodes = 250
	rnd := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return int(rnd % uint64(n))
	}
	x := make([]float64, nodes)
	y := make([]float64, nodes)
	vx := make([]float64, nodes)
	vy := make([]float64, nodes)
	rng := make([]float64, nodes)
	for u := 0; u < nodes; u++ {
		x[u] = float64(next(1000)) / 10
		y[u] = float64(next(1000)) / 10
		vx[u] = float64(next(100)-50) / 200
		vy[u] = float64(next(100)-50) / 200
		rng[u] = 10 + float64(next(100))/50
	}
	for s := 0; s < steps; s++ {
		for a := 0; a < agents; a++ {
			from := int32(next(nodes))
			events = append(events, Event{Step: s, Kind: KindMove, Agent: int32(a), Node: from, To: int32(next(nodes))})
			if a%8 == 0 {
				events = append(events, Event{Step: s, Kind: KindDeposit, Agent: int32(a), Node: from, Value: float64(next(32))})
			}
			if a%13 == 0 {
				events = append(events, Event{Step: s, Kind: KindMeet, Node: from, Value: 2})
			}
		}
		for _, name := range []string{"connectivity", "end-to-end", "ideal"} {
			events = append(events, Event{Step: s, Kind: KindMeasure, Value: float64(next(1000)) / 1000, Extra: name})
		}
		d := WorldDelta{Step: s + 1}
		for u := 0; u < nodes/2; u++ {
			x[u] += vx[u]
			y[u] += vy[u]
			d.Nodes = append(d.Nodes, int32(u))
			d.X = append(d.X, x[u])
			d.Y = append(d.Y, y[u])
			if u%4 == 0 {
				rng[u] -= 0.01
				d.RangeNodes = append(d.RangeNodes, int32(u))
				d.Ranges = append(d.Ranges, rng[u])
			}
		}
		deltas = append(deltas, d)
	}
	return events, deltas
}

// countWriter tallies bytes without storing them.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

const benchSteps, benchAgents = 120, 100

// encodeJSONL writes events as JSON Lines — the encoding the binary log's
// JSONL export (replay.ExportJSONL) produces.
func encodeJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// decodeJSONL parses JSON Lines back into events.
func decodeJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// BenchmarkTraceEncode measures event-stream serialisation throughput and
// density: JSONL (the export format) vs the compressed binary log. The
// binary case additionally carries the world-delta stream JSONL cannot
// express, so its bytes/event figure is an upper bound.
func BenchmarkTraceEncode(b *testing.B) {
	events, deltas := benchStream(benchSteps, benchAgents)
	b.Run("format=jsonl", func(b *testing.B) {
		var size int64
		for i := 0; i < b.N; i++ {
			cw := &countWriter{}
			if err := encodeJSONL(cw, events); err != nil {
				b.Fatal(err)
			}
			size = cw.n
		}
		b.SetBytes(size)
		b.ReportMetric(float64(size)/float64(len(events)), "bytes/event")
	})
	b.Run("format=binary", func(b *testing.B) {
		var size int64
		for i := 0; i < b.N; i++ {
			cw := &countWriter{}
			lw, err := NewLogWriter(cw, Header{BaseSeed: 1})
			if err != nil {
				b.Fatal(err)
			}
			emitStream(lw, events, deltas, 0)
			if err := lw.Close(); err != nil {
				b.Fatal(err)
			}
			size = cw.n
		}
		b.SetBytes(size)
		b.ReportMetric(float64(size)/float64(len(events)), "bytes/event")
	})
}

// BenchmarkTraceDecode measures the reverse direction on the same stream.
func BenchmarkTraceDecode(b *testing.B) {
	events, deltas := benchStream(benchSteps, benchAgents)
	b.Run("format=jsonl", func(b *testing.B) {
		var buf bytes.Buffer
		if err := encodeJSONL(&buf, events); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := decodeJSONL(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != len(events) {
				b.Fatalf("decoded %d events, want %d", len(got), len(events))
			}
		}
	})
	b.Run("format=binary", func(b *testing.B) {
		var buf bytes.Buffer
		lw, err := NewLogWriter(&buf, Header{BaseSeed: 1})
		if err != nil {
			b.Fatal(err)
		}
		emitStream(lw, events, deltas, 0)
		if err := lw.Close(); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lr, err := NewLogReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			var sum float64
			err = lr.Scan(func(r Record) error {
				switch r.Kind {
				case RecordEvent:
					n++
				case RecordDelta:
					if len(r.Delta.X) > 0 {
						sum += r.Delta.X[0]
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if n != len(events) {
				b.Fatalf("decoded %d events, want %d", n, len(events))
			}
			if math.IsNaN(sum) {
				b.Fatal("delta stream decoded to NaN")
			}
		}
	})
}
