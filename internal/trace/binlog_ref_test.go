package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"sync"
	"testing"
)

// refLogWriter is the synchronous reference for LogWriter's block codec:
// one block at a time, compressed, framed and written on the caller's
// goroutine. It shares the record encoder and the preamble with LogWriter,
// and it compresses every block with a fresh level-6 gzip writer, so it
// reuses no compression state at all.
type refLogWriter struct {
	buf bytes.Buffer
	enc recordEncoder
}

func newRefLogWriter(t testing.TB, hdr Header) *refLogWriter {
	t.Helper()
	pre, err := logPreamble(hdr)
	if err != nil {
		t.Fatal(err)
	}
	rw := &refLogWriter{enc: recordEncoder{strings: make(map[string]int)}}
	rw.buf.Write(pre)
	return rw
}

func (rw *refLogWriter) Emit(e Event) {
	rw.enc.event(e)
	if rw.enc.full() {
		rw.flush()
	}
}

func (rw *refLogWriter) EmitWorld(d WorldDelta) {
	rw.enc.delta(d)
	if rw.enc.full() {
		rw.flush()
	}
}

func (rw *refLogWriter) EmitAnchor(step int, snapshot []byte) {
	rw.flush()
	rw.enc.codec.Reset()
	rw.writeBlock(blockAnchor, step, step, 1, snapshot)
}

// flush seals and writes the current partial block.
func (rw *refLogWriter) flush() {
	if rw.enc.count == 0 {
		return
	}
	rw.writeBlock(blockEvents, rw.enc.first, rw.enc.last, rw.enc.count, rw.enc.raw)
	rw.enc.nextBlock(rw.enc.raw)
}

func (rw *refLogWriter) writeBlock(typ byte, first, last, count int, raw []byte) {
	var comp bytes.Buffer
	zw, err := gzip.NewWriterLevel(&comp, gzip.DefaultCompression)
	if err != nil {
		panic(err)
	}
	zw.Write(raw) // writes into a bytes.Buffer cannot fail
	zw.Close()
	rw.buf.WriteByte(blockMagic)
	rw.buf.WriteByte(typ)
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(first))
	hdr = binary.AppendUvarint(hdr, uint64(last))
	hdr = binary.AppendUvarint(hdr, uint64(count))
	hdr = binary.AppendUvarint(hdr, uint64(len(raw)))
	hdr = binary.AppendUvarint(hdr, uint64(comp.Len()))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(comp.Bytes()))
	rw.buf.Write(hdr)
	rw.buf.Write(comp.Bytes())
}

// bytes seals the final block and returns the whole log.
func (rw *refLogWriter) bytes() []byte {
	rw.flush()
	return rw.buf.Bytes()
}

// emitStream interleaves a benchStream's world deltas with its events the
// way the harness records them (each step's delta before its events), with
// a snapshot anchor before every anchorEvery-th step's delta (none when
// anchorEvery is 0).
func emitStream(sink WorldSink, events []Event, deltas []WorldDelta, anchorEvery int) {
	di := 0
	emitDeltas := func(step int) {
		for di < len(deltas) && deltas[di].Step <= step {
			d := deltas[di]
			if anchorEvery > 0 && d.Step%anchorEvery == 0 {
				snap, _ := json.Marshal(map[string]any{"step": d.Step, "x": d.X, "y": d.Y})
				sink.EmitAnchor(d.Step, snap)
			}
			sink.EmitWorld(d)
			di++
		}
	}
	for _, e := range events {
		emitDeltas(e.Step)
		sink.Emit(e)
	}
}

// refStreams are the streams the pipelined writer is checked against the
// reference on: few events in one partial block, the many-block bench
// stream, and the bench stream with anchors every few steps (each anchor
// seals a partial block) ending in a partial events block.
func refStreams() []struct {
	name string
	emit func(WorldSink)
} {
	events, deltas := benchStream(benchSteps, benchAgents)
	return []struct {
		name string
		emit func(WorldSink)
	}{
		{"sample-events", func(s WorldSink) {
			for _, e := range sampleEvents() {
				s.Emit(e)
			}
		}},
		{"bench-stream", func(s WorldSink) { emitStream(s, events, deltas, 0) }},
		{"anchored", func(s WorldSink) { emitStream(s, events, deltas, 7) }},
	}
}

// TestLogWriterMatchesSyncReference pins the pipelined block codec to the
// synchronous reference: the same calls must give the same log bytes, at
// GOMAXPROCS=1 (compression and simulation share one P) and at the host
// default, and for a FileLog, the same file.
func TestLogWriterMatchesSyncReference(t *testing.T) {
	hdr := Header{BaseSeed: 11, Config: []byte(`{"scenario":"routing"}`)}
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, st := range refStreams() {
				t.Run(st.name, func(t *testing.T) {
					ref := newRefLogWriter(t, hdr)
					st.emit(ref)
					want := ref.bytes()
					var buf bytes.Buffer
					lw, err := NewLogWriter(&buf, hdr)
					if err != nil {
						t.Fatal(err)
					}
					st.emit(lw)
					if err := lw.Close(); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf.Bytes(), want) {
						t.Fatalf("log bytes differ from the reference (%d vs %d bytes)", buf.Len(), len(want))
					}
				})
			}
			t.Run("concurrent-writers", func(t *testing.T) {
				// Writers share the deflater free list: four at once must
				// each still match the reference.
				st := refStreams()[1]
				ref := newRefLogWriter(t, hdr)
				st.emit(ref)
				want := ref.bytes()
				got := make([][]byte, 4)
				errs := make([]error, len(got))
				var wg sync.WaitGroup
				for i := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var buf bytes.Buffer
						lw, err := NewLogWriter(&buf, hdr)
						if err == nil {
							st.emit(lw)
							err = lw.Close()
						}
						got[i], errs[i] = buf.Bytes(), err
					}()
				}
				wg.Wait()
				for i := range got {
					if errs[i] != nil {
						t.Fatalf("writer %d: %v", i, errs[i])
					}
					if !bytes.Equal(got[i], want) {
						t.Fatalf("writer %d: log bytes differ from the reference", i)
					}
				}
			})
			t.Run("create-log", func(t *testing.T) {
				st := refStreams()[2]
				ref := newRefLogWriter(t, hdr)
				st.emit(ref)
				want := ref.bytes()
				path := t.TempDir() + "/run.alog"
				fl, err := CreateLog(path, hdr)
				if err != nil {
					t.Fatal(err)
				}
				st.emit(fl)
				if err := fl.Close(); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("log file differs from the reference (%d vs %d bytes)", len(got), len(want))
				}
			})
		})
	}
}

// hugeNodeLog is a well-formed log, CRC and all, whose one events block
// holds a world delta naming node 2147483000. Growing the predictor lanes
// to that node would need ~51 GB.
func hugeNodeLog(t testing.TB) []byte {
	raw := []byte{recDelta}
	raw = appendZigzag(raw, 0)
	raw = appendIDs(raw, []int32{2147483000})
	raw = binary.AppendUvarint(raw, 1) // x residual
	raw = binary.AppendUvarint(raw, 2) // y residual
	raw = appendIDs(raw, nil)          // no range changes
	raw = append(raw, 0)               // no fault change
	rw := newRefLogWriter(t, Header{})
	rw.writeBlock(blockEvents, 0, 0, 1, raw)
	return rw.bytes()
}
