package replay_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/replay"
	"repro/internal/routing"
	"repro/internal/trace"
)

// teeSink records one run twice over: into the binary log (events plus the
// world stream) and, event for event, into an in-memory Buffer.
type teeSink struct {
	*trace.LogWriter
	buf trace.Buffer
}

func (s *teeSink) Emit(e trace.Event) {
	s.LogWriter.Emit(e)
	s.buf.Emit(e)
}

// recordTee runs one scenario on meta's fresh world with a teeSink as its
// tracer and returns the log bytes and the buffered events.
func recordTee(t *testing.T, meta replay.RunMeta,
	run func(w *network.World, tr trace.Tracer, sched *faults.Schedule) error) ([]byte, []trace.Event) {
	t.Helper()
	w, err := meta.FreshWorld()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Preset(meta.FaultPreset, w.N(), w.Gateways(), meta.Steps, meta.WorldSeed)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := replay.NewLogHeader(meta)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	lw, err := trace.NewLogWriter(&log, hdr)
	if err != nil {
		t.Fatal(err)
	}
	tee := &teeSink{LogWriter: lw}
	if err := run(w, tee, sched); err != nil {
		t.Fatal(err)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	return log.Bytes(), tee.buf.Events()
}

// jsonLines is the export's referee: events encoded one per line by a
// default encoding/json Encoder.
func jsonLines(t testing.TB, events []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestExportJSONLMatchesBuffer pins the JSONL export of a binary log byte
// for byte to the same run's events encoded straight from a trace.Buffer,
// on a churn-faulted communicating routing run and a churn-faulted mapping
// run: every event kind, field and float survives the log unchanged.
func TestExportJSONLMatchesBuffer(t *testing.T) {
	cases := []struct {
		name  string
		meta  replay.RunMeta
		kinds []trace.Kind // kinds the run must emit, so the pin covers them
		run   func(w *network.World, tr trace.Tracer, sched *faults.Schedule) error
	}{
		{
			name: "routing-churn-communicate",
			meta: replay.RunMeta{Scenario: "routing", Spec: testSpec(), WorldSeed: 1, Seed: 7,
				Steps: 120, FaultPreset: "churn", AnchorEvery: 30},
			kinds: []trace.Kind{trace.KindMove, trace.KindMeet, trace.KindDeposit, trace.KindMeasure, trace.KindFault},
			run: func(w *network.World, tr trace.Tracer, sched *faults.Schedule) error {
				_, err := routing.Run(w, routing.Scenario{
					Agents: 20, Kind: core.PolicyOldestNode, Communicate: true, Steps: 120,
					Faults: sched, Tracer: tr, AnchorEvery: 30,
				}, 7)
				return err
			},
		},
		{
			name: "mapping-churn",
			meta: replay.RunMeta{Scenario: "mapping", Spec: netgen.Mapping300(), WorldSeed: 1, Seed: 7,
				Steps: 400, FaultPreset: "churn", AnchorEvery: 100},
			kinds: []trace.Kind{trace.KindMove, trace.KindMeet, trace.KindMeasure, trace.KindFault, trace.KindFinish},
			run: func(w *network.World, tr trace.Tracer, sched *faults.Schedule) error {
				_, err := mapping.Run(w, mapping.Scenario{
					Agents: 15, Kind: core.PolicyConscientious, Cooperate: true, MaxSteps: 400,
					Faults: sched, Tracer: tr, AnchorEvery: 100,
				}, 7)
				return err
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log, events := recordTee(t, tc.meta, tc.run)
			want := jsonLines(t, events)
			seen := make(map[trace.Kind]bool)
			for _, e := range events {
				seen[e.Kind] = true
			}
			for _, k := range tc.kinds {
				if !seen[k] {
					t.Fatalf("run emitted no %q events", k)
				}
			}
			lr, _ := openLog(t, log)
			var got bytes.Buffer
			n, err := replay.ExportJSONL(lr, &got)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(events) {
				t.Fatalf("exported %d events, buffered %d", n, len(events))
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("export (%d B) differs from the buffered JSONL (%d B)", got.Len(), len(want))
			}
		})
	}
}

// shortWriter accepts its first n bytes and fails every write after.
type shortWriter struct{ n int }

var errShortWrite = errors.New("sink full")

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errShortWrite
	}
	w.n -= len(p)
	return len(p), nil
}

// TestExportJSONLEdges pins the export at its edges: a log without events
// exports nothing, and a corrupt block (CRC mismatch), a value JSON cannot
// express, or a sink failing mid-stream or at the final flush surfaces as
// an error instead of a silently short JSONL stream.
func TestExportJSONLEdges(t *testing.T) {
	meta := replay.RunMeta{Scenario: "routing", Spec: testSpec(), WorldSeed: 1, Seed: 7, Steps: 40, AnchorEvery: 20}
	data, _ := recordRun(t, meta)

	t.Run("empty-log", func(t *testing.T) {
		lr, err := trace.NewLogReader(bytes.NewReader(exportFuzzLog(false)))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if n, err := replay.ExportJSONL(lr, &out); n != 0 || out.Len() != 0 || err != nil {
			t.Fatalf("empty log exported %d events (%d B), err %v", n, out.Len(), err)
		}
	})

	t.Run("corrupt-log", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[len(mut)-2] ^= 0x40
		lr, err := trace.NewLogReader(bytes.NewReader(mut))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := replay.ExportJSONL(lr, &bytes.Buffer{}); !errors.Is(err, trace.ErrCorrupt) {
			t.Fatalf("corrupt log: got %v, want ErrCorrupt", err)
		}
	})

	t.Run("unencodable-value", func(t *testing.T) {
		var buf bytes.Buffer
		lw, err := trace.NewLogWriter(&buf, trace.Header{})
		if err != nil {
			t.Fatal(err)
		}
		lw.Emit(trace.Event{Kind: trace.KindMeasure, Value: math.NaN(), Extra: "connectivity"})
		if err := lw.Close(); err != nil {
			t.Fatal(err)
		}
		lr, err := trace.NewLogReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if n, err := replay.ExportJSONL(lr, &bytes.Buffer{}); err == nil {
			t.Fatalf("NaN measure exported as %d events without error", n)
		}
	})

	for _, c := range []struct {
		name string
		log  []byte
	}{
		{"failing-sink", data},                 // fails while the scan runs
		{"failing-flush", exportFuzzLog(true)}, // fits the buffer: fails at the flush
	} {
		t.Run(c.name, func(t *testing.T) {
			lr, err := trace.NewLogReader(bytes.NewReader(c.log))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := replay.ExportJSONL(lr, &shortWriter{n: 100}); !errors.Is(err, errShortWrite) {
				t.Fatalf("got %v, want %v", err, errShortWrite)
			}
		})
	}
}

// exportFuzzLog builds a small well-formed log: a world anchor and delta,
// plus — when withEvents — events of every kind, one with an Extra the
// JSON encoder must escape.
func exportFuzzLog(withEvents bool) []byte {
	var buf bytes.Buffer
	lw, err := trace.NewLogWriter(&buf, trace.Header{BaseSeed: 1})
	if err != nil {
		panic(err)
	}
	lw.EmitAnchor(0, []byte(`{"version":2,"positions":[{"x":1,"y":2}],"ranges":[3]}`))
	if withEvents {
		lw.Emit(trace.Event{Step: 0, Kind: trace.KindMove, Agent: 1, Node: 2, To: 3})
		lw.Emit(trace.Event{Step: 0, Kind: trace.KindMeet, Node: 2, Value: 3})
		lw.Emit(trace.Event{Step: 0, Kind: trace.KindDeposit, Agent: 1, Node: 3, To: 0, Value: 2})
		lw.Emit(trace.Event{Step: 0, Kind: trace.KindMeasure, Value: 0.1 + 0.2, Extra: "<end-to-end> & \"ideal\""})
		lw.Emit(trace.Event{Step: 1, Kind: trace.KindFault, Value: -1e-300, Extra: "node-down"})
	}
	lw.EmitWorld(trace.WorldDelta{Step: 1, Nodes: []int32{0}, X: []float64{1.5}, Y: []float64{2.5}})
	if withEvents {
		lw.Emit(trace.Event{Step: 1, Kind: trace.KindFinish})
	}
	if err := lw.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzExportJSONL feeds the export arbitrary logs: malformed input may
// error (so may a value JSON cannot express, such as NaN), never panic.
// Whatever exports must be exactly encoding/json's encoding of the events
// a scan of the log yields.
func FuzzExportJSONL(f *testing.F) {
	valid := exportFuzzLog(true)
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // truncated final block
	crc := append([]byte(nil), valid...)
	crc[len(crc)-2] ^= 0x40 // payload bit flip: CRC mismatch
	f.Add(crc)
	f.Add(exportFuzzLog(false)) // no events
	f.Add([]byte("AMESHLOG"))
	f.Add([]byte("not a log at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lr, err := trace.NewLogReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		n, err := replay.ExportJSONL(lr, &out)
		if err != nil {
			return
		}
		var events []trace.Event
		if err := lr.Scan(func(r trace.Record) error {
			if r.Kind == trace.RecordEvent {
				events = append(events, r.Event)
			}
			return nil
		}); err != nil {
			t.Fatalf("export succeeded on a log whose scan fails: %v", err)
		}
		if n != len(events) {
			t.Fatalf("exported %d events, scan yields %d", n, len(events))
		}
		if !bytes.Equal(out.Bytes(), jsonLines(t, events)) {
			t.Fatal("export differs from encoding/json of the scanned events")
		}
	})
}
