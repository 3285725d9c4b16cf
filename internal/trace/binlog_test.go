package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// sampleEvents exercises every encoder path: known and custom kinds,
// sparse fields, repeated Extra strings (interning), step deltas including
// a repeat and a jump.
func sampleEvents() []Event {
	return []Event{
		{Step: 0, Kind: KindMove, Agent: 3, Node: 10, To: 11},
		{Step: 0, Kind: KindMeet, Node: 11, Value: 2},
		{Step: 1, Kind: KindDeposit, Agent: 3, Node: 11, To: 0, Value: 4},
		{Step: 1, Kind: KindMeasure, Value: 0.52, Extra: "connectivity"},
		{Step: 1, Kind: KindMeasure, Value: 0.11, Extra: "end-to-end"},
		{Step: 2, Kind: KindMeasure, Value: 0.53, Extra: "connectivity"},
		{Step: 7, Kind: KindFault, Value: 3, Extra: "node-down"},
		{Step: 9, Kind: Kind("custom-kind"), Agent: 1, Extra: "custom-extra"},
		{Step: 9, Kind: KindFinish},
	}
}

func writeLog(t *testing.T, hdr Header, emit func(*LogWriter)) []byte {
	t.Helper()
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf, hdr)
	if err != nil {
		t.Fatalf("NewLogWriter: %v", err)
	}
	emit(lw)
	if err := lw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func readAll(t *testing.T, data []byte) (*LogReader, []Record) {
	t.Helper()
	lr, err := NewLogReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewLogReader: %v", err)
	}
	var recs []Record
	err = lr.Scan(func(r Record) error {
		// Deep-copy: Delta slices and Anchor alias reader scratch.
		c := r
		c.Delta.Nodes = append([]int32(nil), r.Delta.Nodes...)
		c.Delta.X = append([]float64(nil), r.Delta.X...)
		c.Delta.Y = append([]float64(nil), r.Delta.Y...)
		c.Delta.RangeNodes = append([]int32(nil), r.Delta.RangeNodes...)
		c.Delta.Ranges = append([]float64(nil), r.Delta.Ranges...)
		c.Delta.Dead = append([]int32(nil), r.Delta.Dead...)
		c.Delta.DownGateways = append([]int32(nil), r.Delta.DownGateways...)
		c.Anchor = append([]byte(nil), r.Anchor...)
		recs = append(recs, c)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return lr, recs
}

func TestBinlogEventRoundTrip(t *testing.T) {
	events := sampleEvents()
	data := writeLog(t, Header{BaseSeed: 7, Config: []byte(`{"x":1}`)}, func(lw *LogWriter) {
		for _, e := range events {
			lw.Emit(e)
		}
	})
	lr, recs := readAll(t, data)
	if lr.Header().BaseSeed != 7 {
		t.Fatalf("header base seed = %d, want 7", lr.Header().BaseSeed)
	}
	if lr.Header().ConfigHash != ConfigHashOf([]byte(`{"x":1}`)) {
		t.Fatalf("header config hash not derived from config")
	}
	if len(recs) != len(events) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(events))
	}
	for i, r := range recs {
		if r.Kind != RecordEvent {
			t.Fatalf("record %d kind = %v, want event", i, r.Kind)
		}
		if r.Event != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, r.Event, events[i])
		}
	}
}

func TestBinlogDeterministicBytes(t *testing.T) {
	emit := func(lw *LogWriter) {
		for _, e := range sampleEvents() {
			lw.Emit(e)
		}
		lw.EmitAnchor(10, []byte(`{"version":2}`))
		lw.EmitWorld(WorldDelta{Step: 11, Nodes: []int32{1, 4}, X: []float64{0.5, 1.5}, Y: []float64{2.5, 3.5}})
	}
	hdr := Header{BaseSeed: 3, Config: []byte(`{"s":"a"}`)}
	a := writeLog(t, hdr, emit)
	b := writeLog(t, hdr, emit)
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs produced different log bytes (%d vs %d)", len(a), len(b))
	}
}

func TestBinlogWorldStreamRoundTrip(t *testing.T) {
	anchor0 := []byte(`{"version":2,"positions":[]}`)
	anchor2 := []byte(`{"version":2,"positions":[{}]}`)
	d1 := WorldDelta{Step: 1, Nodes: []int32{0, 2}, X: []float64{1, 2}, Y: []float64{3, 4},
		RangeNodes: []int32{2}, Ranges: []float64{9.5}}
	d2 := WorldDelta{Step: 2, Nodes: []int32{2}, X: []float64{2.25}, Y: []float64{4.5},
		FaultChanged: true, Dead: []int32{5, 7}, DownGateways: []int32{1}, Partition: true, PartitionX: 42.5}
	d3 := WorldDelta{Step: 3, Nodes: []int32{2}, X: []float64{2.5}, Y: []float64{4.75},
		FaultChanged: true}
	data := writeLog(t, Header{}, func(lw *LogWriter) {
		lw.EmitAnchor(0, anchor0)
		lw.EmitWorld(d1)
		lw.EmitAnchor(2, anchor2)
		lw.EmitWorld(d2)
		lw.EmitWorld(d3)
	})
	lr, recs := readAll(t, data)
	want := []Record{
		{Kind: RecordAnchor, Step: 0, Anchor: anchor0},
		{Kind: RecordDelta, Delta: d1},
		{Kind: RecordAnchor, Step: 2, Anchor: anchor2},
		{Kind: RecordDelta, Delta: d2},
		{Kind: RecordDelta, Delta: d3},
	}
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if fmt.Sprintf("%+v", recs[i]) != fmt.Sprintf("%+v", want[i]) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, recs[i], want[i])
		}
	}

	// Seeking: the same tail must decode identically when the scan starts
	// at the second anchor instead of the file start (XOR chain reset).
	idx, err := lr.AnchorIndexBefore(3)
	if err != nil {
		t.Fatalf("AnchorIndexBefore: %v", err)
	}
	blocks, _ := lr.Blocks()
	if blocks[idx].First != 2 {
		t.Fatalf("nearest anchor to step 3 observes step %d, want 2", blocks[idx].First)
	}
	var tail []string
	err = lr.ScanFrom(idx, func(r Record) error {
		tail = append(tail, fmt.Sprintf("%+v", r))
		return nil
	})
	if err != nil {
		t.Fatalf("ScanFrom: %v", err)
	}
	if len(tail) != 3 {
		t.Fatalf("tail decoded %d records, want 3", len(tail))
	}
	for i, w := range want[2:] {
		if tail[i] != fmt.Sprintf("%+v", w) {
			t.Fatalf("tail record %d:\n got %s\nwant %+v", i, tail[i], w)
		}
	}
}

// TestDeltaCodecRoundTrip drives the world-delta codec directly, as the
// trajectory tape does: bodies concatenated with other bytes between them
// decode back to the same deltas, each reporting exactly the bytes it
// consumed, and a presized codec writes the same bytes as a growing one.
func TestDeltaCodecRoundTrip(t *testing.T) {
	deltas := []WorldDelta{
		{Nodes: []int32{0, 2}, X: []float64{1, 2}, Y: []float64{3, 4}, RangeNodes: []int32{2}, Ranges: []float64{9.5}},
		{Nodes: []int32{2}, X: []float64{2.25}, Y: []float64{4.5},
			FaultChanged: true, Dead: []int32{5, 7}, DownGateways: []int32{1}, Partition: true, PartitionX: 42.5},
		{Nodes: []int32{2}, X: []float64{2.5}, Y: []float64{4.75}, FaultChanged: true},
		{},
	}
	var grown, presized []byte
	enc, pre := &DeltaCodec{}, NewDeltaCodec(8)
	for _, d := range deltas {
		grown = append(enc.Append(grown, d), 0xEE)
		presized = append(pre.Append(presized, d), 0xEE)
	}
	if !bytes.Equal(grown, presized) {
		t.Fatal("a presized codec encodes different bytes")
	}
	dec := NewDeltaCodec(0)
	var got WorldDelta
	pos := 0
	for i, want := range deltas {
		got.Step = i
		n, err := dec.Decode(grown[pos:], &got)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		want.Step = i
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("delta %d:\n got %+v\nwant %+v", i, got, want)
		}
		if pos += n; grown[pos] != 0xEE {
			t.Fatalf("delta %d: Decode consumed %d bytes, not its whole body", i, n)
		}
		pos++
	}
	if _, err := dec.Decode(grown[:3], &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated body: err = %v, want ErrCorrupt", err)
	}
}

func TestBinlogSeekRequiresAnchor(t *testing.T) {
	data := writeLog(t, Header{}, func(lw *LogWriter) {
		lw.Emit(Event{Step: 0, Kind: KindMove})
		lw.EmitAnchor(1, []byte(`{}`))
	})
	lr, err := NewLogReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := lr.ScanFrom(0, func(Record) error { return nil }); err != nil {
		t.Fatalf("ScanFrom(0) should always be allowed: %v", err)
	}
	// Block 0 holds events, block 1 the anchor: starting mid-file at a
	// non-anchor block must be refused (the XOR chain state is unknown).
	blocks, _ := lr.Blocks()
	for i, b := range blocks {
		if b.Type != blockAnchor && i > 0 {
			if err := lr.ScanFrom(i, func(Record) error { return nil }); err == nil {
				t.Fatalf("ScanFrom(%d) on a non-anchor block succeeded", i)
			}
		}
	}
}

// TestBinlogCorruption: truncation, bit flips in the payload (CRC), and a
// future format version must all surface as errors — never panics, never
// silently wrong data.
func TestBinlogCorruption(t *testing.T) {
	data := writeLog(t, Header{BaseSeed: 1}, func(lw *LogWriter) {
		for _, e := range sampleEvents() {
			lw.Emit(e)
		}
		lw.EmitAnchor(10, []byte(`{"version":2}`))
	})

	scan := func(b []byte) error {
		lr, err := NewLogReader(bytes.NewReader(b))
		if err != nil {
			return err
		}
		return lr.Scan(func(Record) error { return nil })
	}

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{len(data) - 1, len(data) - 7, len(data) / 2, 12, 3} {
			if cut < 0 || cut >= len(data) {
				continue
			}
			if err := scan(data[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation at %d: got %v, want ErrCorrupt", cut, err)
			}
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		// Flip a byte inside the last block's compressed payload: the CRC
		// must catch it.
		mut := append([]byte(nil), data...)
		mut[len(mut)-3] ^= 0xFF
		if err := scan(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("payload bit flip: got %v, want ErrCorrupt", err)
		}
	})

	t.Run("newer-version", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[8] = LogVersion + 1 // version varint directly follows the magic
		_, err := NewLogReader(bytes.NewReader(mut))
		if err == nil || !strings.Contains(err.Error(), "newer") {
			t.Fatalf("future version: got %v, want newer-version error", err)
		}
	})

	t.Run("huge-node-id", func(t *testing.T) {
		// A CRC-valid delta naming node 2147483000 must be refused before
		// the predictor lanes grow to it.
		if err := scan(hugeNodeLog(t)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("huge node id: got %v, want ErrCorrupt", err)
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[0] = 'X'
		if _, err := NewLogReader(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
		}
	})
}

// failWriter fails every write after the first n bytes.
type failWriter struct {
	n      int
	wrote  int
	failed bool
}

func (f *failWriter) Write(p []byte) (int, error) {
	if f.wrote+len(p) > f.n {
		f.failed = true
		return 0, errors.New("sink full")
	}
	f.wrote += len(p)
	return len(p), nil
}

// TestLogWriterFailFast pins the binary writer's error latch: once a
// block write fails, Emit/EmitAnchor turn into no-ops and Close reports.
func TestLogWriterFailFast(t *testing.T) {
	fw := &failWriter{n: 64} // header fits; the first block write fails
	lw, err := NewLogWriter(fw, Header{})
	if err != nil {
		t.Fatalf("NewLogWriter: %v", err)
	}
	lw.Emit(Event{Step: 0, Kind: KindMove})
	lw.EmitAnchor(0, []byte(`{}`)) // forces a block flush against the dead sink
	if !fw.failed {
		t.Fatal("anchor flush never reached the failing sink")
	}
	before := lw.Count()
	for i := 0; i < 50; i++ {
		lw.Emit(Event{Step: i, Kind: KindMove})
	}
	if lw.Count() != before {
		t.Fatalf("Emit after latched error still counted: %d -> %d", before, lw.Count())
	}
	if err := lw.Close(); err == nil {
		t.Fatal("Close returned nil after a latched write error")
	}
}

// errSinkFull is the error failAfterWrites returns.
var errSinkFull = errors.New("sink full")

// failAfterWrites keeps its first ok Write calls and fails every later one.
// The preamble is one write and every block two (frame header, payload).
type failAfterWrites struct {
	ok, calls int
	buf       bytes.Buffer
}

func (f *failAfterWrites) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > f.ok {
		return 0, errSinkFull
	}
	return f.buf.Write(p)
}

// waitGoroutines fails unless the goroutine count falls back to base. A
// codec goroutine signals its block done just before it exits, so the
// count may lag the barrier that waited for it by a moment.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLogWriterPipelineFailure: a sink that fails on the second events
// block, with no anchor to force a barrier. The error latches when that
// block commits, mid-stream; from then on Count freezes and nothing more
// reaches the sink, Close reports the error, the index lists only the
// block the sink took, and no codec goroutine outlives Close.
func TestLogWriterPipelineFailure(t *testing.T) {
	events, deltas := benchStream(benchSteps, benchAgents)
	ref := newRefLogWriter(t, Header{})
	emitStream(ref, events, deltas, 0)
	want := ref.bytes()
	if len(ref.index) < 2*maxInFlight+2 {
		t.Fatalf("stream has %d blocks, too few to fill the pipeline", len(ref.index))
	}

	base := runtime.NumGoroutine()
	fw := &failAfterWrites{ok: 3}
	lw, err := NewLogWriter(fw, Header{})
	if err != nil {
		t.Fatal(err)
	}
	latched := -1
	di := 0
	for _, e := range events {
		for di < len(deltas) && deltas[di].Step <= e.Step {
			lw.EmitWorld(deltas[di])
			di++
		}
		lw.Emit(e)
		if latched < 0 && fw.calls > fw.ok {
			latched = lw.Count()
		}
	}
	if latched < 0 {
		t.Fatal("the failing block never committed before Close")
	}
	if got := lw.Count(); got != latched {
		t.Fatalf("Count moved after the error latched: %d -> %d", latched, got)
	}
	if err := lw.Close(); !errors.Is(err, errSinkFull) {
		t.Fatalf("Close = %v, want the sink error", err)
	}
	if fw.calls != fw.ok+1 {
		t.Fatalf("sink saw %d writes, want %d: nothing may follow the failed one", fw.calls, fw.ok+1)
	}
	if got := lw.Index(); !reflect.DeepEqual(got, ref.index[:1]) {
		t.Fatalf("index = %+v, want only the first block %+v", got, ref.index[:1])
	}
	if !bytes.Equal(fw.buf.Bytes(), want[:ref.index[1].Off]) {
		t.Fatalf("sink holds %d bytes, want the preamble and first block (%d bytes)", fw.buf.Len(), ref.index[1].Off)
	}
	waitGoroutines(t, base)
}

// scanRecords scans data from the start, formatting each record (the
// decoder reuses its buffers), until the scan ends or fn stops it.
func scanRecords(lr *LogReader, stopAfter int) ([]string, error) {
	var recs []string
	err := lr.Scan(func(r Record) error {
		recs = append(recs, fmt.Sprintf("%+v", r))
		if len(recs) == stopAfter {
			return ErrStop
		}
		return nil
	})
	return recs, err
}

// TestLogReaderCorruptBlockInOrder: with block k's payload corrupted, the
// read-ahead must still deliver every record of blocks 0..k-1, in order,
// before it reports ErrCorrupt.
func TestLogReaderCorruptBlockInOrder(t *testing.T) {
	events, deltas := benchStream(benchSteps, benchAgents)
	data := writeLog(t, Header{}, func(lw *LogWriter) { emitStream(lw, events, deltas, 0) })
	lr, err := NewLogReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := scanRecords(lr, -1)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := lr.Blocks()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 3, len(blocks) - 1} {
		mut := append([]byte(nil), data...)
		end := int64(len(mut))
		if k+1 < len(blocks) {
			end = blocks[k+1].Off
		}
		mut[end-1] ^= 0xFF // last payload byte of block k: CRC mismatch
		lr, err := NewLogReader(bytes.NewReader(mut))
		if err != nil {
			t.Fatal(err)
		}
		got, err := scanRecords(lr, -1)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("block %d corrupted: Scan = %v, want ErrCorrupt", k, err)
		}
		before := 0
		for _, b := range blocks[:k] {
			before += b.Count
		}
		if !slices.Equal(got, clean[:before]) {
			t.Fatalf("block %d corrupted: delivered %d records, want the %d of the blocks before it", k, len(got), before)
		}
	}
}

// TestLogReaderStopAwaitsHelper: ErrStop inside the first block returns
// with no read-ahead goroutine left running, and the reader then rescans
// from block 0 to the same records as a fresh reader.
func TestLogReaderStopAwaitsHelper(t *testing.T) {
	events, deltas := benchStream(benchSteps, benchAgents)
	data := writeLog(t, Header{}, func(lw *LogWriter) { emitStream(lw, events, deltas, 7) })
	fresh, err := NewLogReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, err := scanRecords(fresh, -1)
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	lr, err := NewLogReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := lr.Blocks()
	if err != nil {
		t.Fatal(err)
	}
	stopped, err := scanRecords(lr, 5)
	if err != nil || len(stopped) != 5 || blocks[0].Count <= 5 {
		t.Fatalf("stop inside block 0 (%d records): got %d records, err %v", blocks[0].Count, len(stopped), err)
	}
	for i := range lr.slots {
		if lr.slots[i].running {
			t.Fatalf("Scan returned with read-ahead slot %d not awaited", i)
		}
	}
	waitGoroutines(t, base)
	var got []string
	if err := lr.ScanFrom(0, func(r Record) error {
		got = append(got, fmt.Sprintf("%+v", r))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("rescan after ErrStop gave %d records, want the fresh reader's %d", len(got), len(want))
	}
}

// TestLogWriterReusesDeflateState: deflate state comes from the package
// free list, so once warm a whole writer lifecycle on the bench stream
// allocates less than building one fresh level-6 compressor does.
func TestLogWriterReusesDeflateState(t *testing.T) {
	events, deltas := benchStream(benchSteps, benchAgents)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	compressor := allocated(func() {
		zw, err := gzip.NewWriterLevel(io.Discard, gzip.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		zw.Write([]byte{0}) // the compressor is built on first write
		zw.Close()
	})
	lifecycle := func() {
		lw, err := NewLogWriter(&countWriter{}, Header{BaseSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		emitStream(lw, events, deltas, 0)
		if err := lw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	lifecycle()
	lifecycle()
	for i := 0; i < 20; i++ {
		if got := allocated(lifecycle); got >= compressor {
			t.Fatalf("lifecycle %d allocated %d B, want less than one fresh compressor (%d B)", i, got, compressor)
		}
	}
}

// TestLogMetricsNoPerturbation pins the observability contract: attaching
// a metrics registry must not change a single byte of the log, and the
// counters must agree with the writer's own accounting.
func TestLogMetricsNoPerturbation(t *testing.T) {
	emit := func(lw *LogWriter) {
		for _, e := range sampleEvents() {
			lw.Emit(e)
		}
		lw.EmitAnchor(10, []byte(`{"version":2}`))
		lw.EmitWorld(WorldDelta{Step: 11, Nodes: []int32{0}, X: []float64{1}, Y: []float64{2}})
	}
	plain := writeLog(t, Header{BaseSeed: 9}, emit)

	reg := metrics.NewRegistry()
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf, Header{BaseSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	lw.Instrument(reg)
	emit(lw)
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, buf.Bytes()) {
		t.Fatal("attaching a metrics registry changed the log bytes")
	}

	snap := reg.Snapshot(nil)
	want := map[string]uint64{
		"trace_events_total":   uint64(len(sampleEvents())),
		"trace_bytes_written":  uint64(buf.Len()),
		"trace_blocks_flushed": uint64(len(lw.Index())),
	}
	for name, w := range want {
		if got := snap.Counter(name); got != w {
			t.Fatalf("%s = %v, want %v", name, got, w)
		}
	}

	// Reader side: replay_blocks_read counts every decoded block.
	rreg := metrics.NewRegistry()
	lr, err := NewLogReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lr.Instrument(rreg)
	if err := lr.Scan(func(Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := rreg.Snapshot(nil).Counter("replay_blocks_read"); got != uint64(len(lw.Index())) {
		t.Fatalf("replay_blocks_read = %v, want %d", got, len(lw.Index()))
	}
}

// TestFileLogSidecarIndex: CreateLog writes a sidecar index on Close;
// OpenLog uses it, and still works (scanning) when the sidecar is gone.
func TestFileLogSidecarIndex(t *testing.T) {
	path := t.TempDir() + "/run.alog"
	fl, err := CreateLog(path, Header{BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sampleEvents() {
		fl.Emit(e)
	}
	fl.EmitAnchor(10, []byte(`{"version":2}`))
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(label string) {
		lr, closer, err := OpenLog(path)
		if err != nil {
			t.Fatalf("%s: OpenLog: %v", label, err)
		}
		defer closer()
		blocks, err := lr.Blocks()
		if err != nil {
			t.Fatalf("%s: Blocks: %v", label, err)
		}
		if len(blocks) == 0 {
			t.Fatalf("%s: no blocks", label)
		}
		n := 0
		if err := lr.Scan(func(r Record) error {
			if r.Kind == RecordEvent {
				n++
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: Scan: %v", label, err)
		}
		if n != len(sampleEvents()) {
			t.Fatalf("%s: decoded %d events, want %d", label, n, len(sampleEvents()))
		}
	}
	check("with sidecar")
	if err := os.Remove(path + ".idx"); err != nil {
		t.Fatal(err)
	}
	check("scan fallback")
}
