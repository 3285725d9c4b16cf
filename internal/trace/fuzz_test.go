package trace

import (
	"bytes"
	"testing"
)

// fuzzLogBytes builds a small well-formed binary log for seeding.
func fuzzLogBytes() []byte {
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf, Header{BaseSeed: 1, Config: []byte(`{"scenario":"routing"}`)})
	if err != nil {
		panic(err)
	}
	lw.EmitAnchor(0, []byte(`{"version":2,"positions":[{"x":1,"y":2}],"ranges":[3]}`))
	lw.Emit(Event{Step: 0, Kind: KindMove, Agent: 1, Node: 2, To: 3})
	lw.Emit(Event{Step: 0, Kind: KindMeasure, Value: 0.5, Extra: "connectivity"})
	lw.EmitWorld(WorldDelta{Step: 1, Nodes: []int32{0}, X: []float64{1.5}, Y: []float64{2.5}})
	lw.Emit(Event{Step: 1, Kind: KindFinish})
	if err := lw.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzLogReader hammers the binary log decoder with mutated inputs: a
// truncated block, a flipped payload byte (CRC), a bumped format version,
// and arbitrary garbage must all produce errors — never a panic, hang, or
// huge allocation.
func FuzzLogReader(f *testing.F) {
	valid := fuzzLogBytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // truncated final block
	f.Add(valid[:11])           // truncated header
	crc := append([]byte(nil), valid...)
	crc[len(crc)-2] ^= 0x40 // payload bit flip: CRC mismatch
	f.Add(crc)
	ver := append([]byte(nil), valid...)
	ver[8] = LogVersion + 1 // unknown future version
	f.Add(ver)
	f.Add(hugeNodeLog(f)) // CRC-valid delta naming node 2147483000
	f.Add([]byte("AMESHLOG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		lr, err := NewLogReader(bytes.NewReader(data))
		if err != nil {
			return // malformed input may error, never panic
		}
		// Whatever decodes must round-trip through a fresh writer into an
		// identically decodable stream.
		var events []Event
		_ = lr.Scan(func(r Record) error {
			if r.Kind == RecordEvent {
				events = append(events, r.Event)
			}
			return nil
		})
		var buf bytes.Buffer
		lw, err := NewLogWriter(&buf, lr.Header())
		if err != nil {
			return
		}
		for _, e := range events {
			lw.Emit(e)
		}
		if err := lw.Close(); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		lr2, err := NewLogReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read header failed: %v", err)
		}
		i := 0
		err = lr2.Scan(func(r Record) error {
			if r.Kind != RecordEvent {
				return nil
			}
			if i >= len(events) || r.Event != events[i] {
				t.Fatalf("round trip changed event %d", i)
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatalf("re-scan failed: %v", err)
		}
		if i != len(events) {
			t.Fatalf("round trip changed count: %d -> %d", len(events), i)
		}
	})
}
