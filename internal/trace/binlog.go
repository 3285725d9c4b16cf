// Binary event-log persistence: a compact framed encoding of the trace
// event stream, with embedded world-snapshot anchors and per-step world
// deltas, wrapped in per-block gzip compression. It is the one durable event
// format: write a run once, analyse it forever — replay the measurement
// curves, rebuild summaries, export the events as JSON Lines, or
// reconstruct the world at any recorded step without re-simulating.
//
// File layout:
//
//	magic "AMESHLOG" | uvarint version | uvarint len | header JSON
//	block*                         (events/deltas or snapshot anchors)
//
// Each block is independently framed:
//
//	0xB1 | type | uvarint first | uvarint last | uvarint count
//	     | uvarint rawLen | uvarint compLen | crc32(comp) LE | comp bytes
//
// where comp is the gzip of the raw record payload and first/last bound the
// steps the block covers. Readers build the block index — every block's
// offset and step range, for seeking — by walking the frame headers.
//
// Event records use varint-delta steps, a one-byte kind code, a field
// presence mask, and per-block string interning for Extra labels, so blocks
// are self-contained and decodable from any offset. A world-delta record
// is its step followed by a DeltaCodec body: changed positions and radio
// ranges as residuals against per-node linear predictors (columnar, so
// the shared high bytes compress well). The predictor chain resets at
// every snapshot anchor, which keeps anchor-rooted tails self-contained —
// exactly the access path offline replay uses.
package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"repro/internal/metrics"
)

// LogVersion is the binary log format version this package writes. Readers
// reject files declaring a newer version instead of misparsing them.
const LogVersion = 1

var logMagic = [8]byte{'A', 'M', 'E', 'S', 'H', 'L', 'O', 'G'}

// ErrCorrupt tags every structural decoding failure — truncated block, CRC
// mismatch, bad varint, string-table violation. Test with errors.Is.
var ErrCorrupt = errors.New("corrupt log")

// Block types.
const (
	blockEvents byte = 1 // event + world-delta records
	blockAnchor byte = 2 // one full world snapshot (JSON payload)
)

const blockMagic byte = 0xB1

// Record tags inside an events block.
const (
	recEvent byte = 0
	recDelta byte = 1
)

// flushRawLen is the raw-payload size at which the writer seals a block.
const flushRawLen = 32 << 10

// Header is the self-describing preamble of a binary log.
type Header struct {
	// Version echoes the format version (the framed version is
	// authoritative; this copy makes the JSON self-contained).
	Version int `json:"version"`
	// BaseSeed is the root seed of the recorded run.
	BaseSeed uint64 `json:"base_seed"`
	// ConfigHash is the FNV-64a hash of Config, so tooling can cheaply
	// detect whether two logs came from the same scenario configuration.
	ConfigHash uint64 `json:"config_hash,omitempty"`
	// Config is an opaque scenario description (see replay.RunMeta).
	Config json.RawMessage `json:"config,omitempty"`
}

// ConfigHashOf returns the FNV-64a hash of a header config blob.
func ConfigHashOf(config []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range config {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// BlockInfo locates one block: its byte offset from the start of the file,
// type, covered step range, and record count.
type BlockInfo struct {
	Off   int64
	Type  byte
	First int
	Last  int
	Count int
}

// kind <-> wire code. Code 0 means "custom kind", carried as an interned
// string so third-party kinds survive the round trip.
var kindToCode = map[Kind]byte{
	KindMove:    1,
	KindMeet:    2,
	KindDeposit: 3,
	KindMeasure: 4,
	KindFinish:  5,
	KindFault:   6,
}

var codeToKind = [...]Kind{1: KindMove, 2: KindMeet, 3: KindDeposit, 4: KindMeasure, 5: KindFinish, 6: KindFault}

// Event field presence mask bits.
const (
	maskAgent = 1 << iota
	maskNode
	maskTo
	maskValue
	maskExtra
)

// recordEncoder turns events and world deltas into the raw payload of an
// events block. It holds the block-local string table and step context,
// plus the world-delta predictor chains, which span blocks and reset only
// at snapshot anchors.
type recordEncoder struct {
	raw      []byte
	count    int
	first    int
	last     int
	prevStep int
	strings  map[string]int

	codec DeltaCodec
}

// beginRecord opens (or continues) an events block and encodes the step
// delta shared by every record type.
func (enc *recordEncoder) beginRecord(tag byte, step int) {
	if enc.count == 0 {
		enc.first = step
		enc.prevStep = step
	}
	enc.raw = append(enc.raw, tag)
	enc.raw = appendZigzag(enc.raw, int64(step-enc.prevStep))
	enc.prevStep = step
	if step > enc.last || enc.count == 0 {
		enc.last = step
	}
	if step < enc.first {
		enc.first = step
	}
	enc.count++
}

// event appends one event record.
func (enc *recordEncoder) event(e Event) {
	enc.beginRecord(recEvent, e.Step)
	code := kindToCode[e.Kind]
	enc.raw = append(enc.raw, code)
	if code == 0 {
		enc.intern(string(e.Kind))
	}
	var mask byte
	if e.Agent != 0 {
		mask |= maskAgent
	}
	if e.Node != 0 {
		mask |= maskNode
	}
	if e.To != 0 {
		mask |= maskTo
	}
	if e.Value != 0 {
		mask |= maskValue
	}
	if e.Extra != "" {
		mask |= maskExtra
	}
	enc.raw = append(enc.raw, mask)
	if mask&maskAgent != 0 {
		enc.raw = appendZigzag(enc.raw, int64(e.Agent))
	}
	if mask&maskNode != 0 {
		enc.raw = appendZigzag(enc.raw, int64(e.Node))
	}
	if mask&maskTo != 0 {
		enc.raw = appendZigzag(enc.raw, int64(e.To))
	}
	if mask&maskValue != 0 {
		enc.raw = binary.LittleEndian.AppendUint64(enc.raw, math.Float64bits(e.Value))
	}
	if mask&maskExtra != 0 {
		enc.intern(e.Extra)
	}
}

// intern appends the block-local string id for s, defining it inline (id
// followed by length + bytes) on first use within the block.
func (enc *recordEncoder) intern(s string) {
	id, ok := enc.strings[s]
	if !ok {
		id = len(enc.strings)
		enc.strings[s] = id
		enc.raw = binary.AppendUvarint(enc.raw, uint64(id))
		enc.raw = binary.AppendUvarint(enc.raw, uint64(len(s)))
		enc.raw = append(enc.raw, s...)
		return
	}
	enc.raw = binary.AppendUvarint(enc.raw, uint64(id))
}

// delta appends one world-delta record.
func (enc *recordEncoder) delta(d WorldDelta) {
	enc.beginRecord(recDelta, d.Step)
	enc.raw = enc.codec.Append(enc.raw, d)
}

// full reports whether the block being filled has reached the seal size.
func (enc *recordEncoder) full() bool { return len(enc.raw) >= flushRawLen }

// nextBlock starts a new events block in the empty buffer buf.
func (enc *recordEncoder) nextBlock(buf []byte) {
	enc.raw = buf[:0]
	enc.count = 0
	clear(enc.strings)
}

// maxInFlight bounds the sealed blocks a LogWriter compresses at once. On
// the Fig 8 workload deflating a block costs ~1.4x the simulation that
// fills it, so two compressors keep pace with one producer.
const maxInFlight = 2

// LogWriter streams events, world deltas, and snapshot anchors into the
// compact binary format. It implements Tracer and WorldSink. It is
// error-latched: the first write error turns every subsequent Emit into a
// no-op and is reported by Close. Construct with NewLogWriter
// (any io.Writer) or CreateLog (a file).
//
// Block compression is pipelined: a sealed block deflates on its own
// goroutine while the next one fills, with at most maxInFlight blocks in
// flight. Blocks commit (frame, write) in seal order on the
// caller's goroutine, so the bytes equal a one-block-at-a-time encoder's.
// EmitAnchor, Flush and Close drain the pipeline before returning.
// A write error therefore latches when its block commits: at the next
// barrier, or once maxInFlight more blocks have sealed.
type LogWriter struct {
	mu  sync.Mutex
	w   io.Writer
	off int64
	err error

	enc    recordEncoder
	events int

	// inflight is a ring of sealed blocks: pending of them, oldest at head.
	inflight [maxInFlight]sealedBlock
	head     int
	pending  int

	mEvents metrics.Counter
	mBytes  metrics.Counter
	mBlocks metrics.Counter
}

// sealedBlock is one block between seal and commit. The writer sets typ
// through z before the compression goroutine starts; that goroutine fills
// z.buf and err, then signals done. buf never leaves the writer.
type sealedBlock struct {
	typ                byte
	first, last, count int
	raw                []byte // the payload: buf for events, the caller's snapshot for anchors
	buf                []byte // the raw buffer this slot lends an events block until commit
	z                  *deflater
	err                error
	done               chan struct{} // one send per compression
}

func (b *sealedBlock) compress() {
	b.z.buf.Reset()
	b.z.zw.Reset(&b.z.buf)
	_, err := b.z.zw.Write(b.raw)
	if err == nil {
		err = b.z.zw.Close()
	}
	b.err = err
	b.done <- struct{}{}
}

// deflater is one gzip compression state plus the buffer it compresses
// into. A fresh level-6 compressor allocates ~800 KB, so deflaters are
// reused across blocks and writers through a package-level free list.
// (A sync.Pool would not do: every GC cycle empties it, and a logged run
// allocates enough to trigger several.) Reset keeps the level, so a
// reused deflater's output is byte-identical to a fresh one's.
type deflater struct {
	zw  *gzip.Writer
	buf bytes.Buffer
}

// maxFreeDeflaters caps the free list at two writers' worth of in-flight
// blocks, so a burst of concurrent writers does not pin their compressors.
const maxFreeDeflaters = 2 * maxInFlight

var deflaters struct {
	mu   sync.Mutex
	free []*deflater
}

func getDeflater() *deflater {
	deflaters.mu.Lock()
	if n := len(deflaters.free); n > 0 {
		z := deflaters.free[n-1]
		deflaters.free = deflaters.free[:n-1]
		deflaters.mu.Unlock()
		return z
	}
	deflaters.mu.Unlock()
	z := new(deflater)
	// The error reports only an invalid level.
	z.zw, _ = gzip.NewWriterLevel(&z.buf, gzip.DefaultCompression)
	return z
}

func putDeflater(z *deflater) {
	deflaters.mu.Lock()
	if len(deflaters.free) < maxFreeDeflaters {
		deflaters.free = append(deflaters.free, z)
	}
	deflaters.mu.Unlock()
}

// logPreamble encodes the file preamble for hdr, stamping hdr.Version to
// LogVersion and deriving hdr.ConfigHash from hdr.Config when unset.
func logPreamble(hdr Header) ([]byte, error) {
	hdr.Version = LogVersion
	if hdr.ConfigHash == 0 && len(hdr.Config) > 0 {
		hdr.ConfigHash = ConfigHashOf(hdr.Config)
	}
	hb, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("trace: encoding log header: %w", err)
	}
	var pre []byte
	pre = append(pre, logMagic[:]...)
	pre = binary.AppendUvarint(pre, LogVersion)
	pre = binary.AppendUvarint(pre, uint64(len(hb)))
	return append(pre, hb...), nil
}

// NewLogWriter writes the file preamble for hdr and returns the writer.
// hdr.Version is stamped to LogVersion and hdr.ConfigHash is derived from
// hdr.Config when unset.
func NewLogWriter(w io.Writer, hdr Header) (*LogWriter, error) {
	pre, err := logPreamble(hdr)
	if err != nil {
		return nil, err
	}
	lw := &LogWriter{w: w, enc: recordEncoder{strings: make(map[string]int)}}
	for i := range lw.inflight {
		lw.inflight[i].done = make(chan struct{}, 1)
	}
	if err := lw.write(pre); err != nil {
		return nil, err
	}
	return lw, nil
}

// Instrument registers the writer's counters on r: trace_events_total,
// trace_bytes_written, and trace_blocks_flushed. Instruments sit entirely
// outside the simulation, so attaching a registry cannot change either
// seeded results or the log bytes.
func (lw *LogWriter) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.mEvents = r.Counter("trace_events_total")
	lw.mBytes = r.Counter("trace_bytes_written")
	lw.mBlocks = r.Counter("trace_blocks_flushed")
	lw.mBytes.Add(uint64(lw.off))
}

func (lw *LogWriter) write(b []byte) error {
	n, err := lw.w.Write(b)
	lw.off += int64(n)
	lw.mBytes.Add(uint64(n))
	if err != nil && lw.err == nil {
		lw.err = err
	}
	return err
}

// Emit encodes the event. Implements Tracer; errors latch the writer and
// surface at Close.
func (lw *LogWriter) Emit(e Event) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil {
		return
	}
	lw.enc.event(e)
	lw.events++
	lw.mEvents.Inc()
	if lw.enc.full() {
		lw.sealLocked()
	}
}

// EmitWorld encodes one step's world delta. Implements WorldSink.
func (lw *LogWriter) EmitWorld(d WorldDelta) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil {
		return
	}
	lw.enc.delta(d)
	if lw.enc.full() {
		lw.sealLocked()
	}
}

// EmitAnchor seals the current block and writes a snapshot anchor block
// before returning. Anchors reset the world-delta XOR chain, so a reader
// can decode the delta tail starting from any anchor without earlier
// context. Implements WorldSink.
func (lw *LogWriter) EmitAnchor(step int, snapshot []byte) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil {
		return
	}
	lw.sealLocked()
	lw.enc.codec.Reset()
	lw.startLocked(blockAnchor, step, step, 1, snapshot)
	lw.drainLocked() // snapshot is the caller's: done with it on return
}

// Count returns the number of events written (world deltas and anchors are
// not events).
func (lw *LogWriter) Count() int {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.events
}

// sealLocked hands the events block being filled to the pipeline and
// starts the next one in the buffer the block's slot frees.
func (lw *LogWriter) sealLocked() {
	enc := &lw.enc
	if enc.count == 0 {
		return
	}
	raw := enc.raw
	b := lw.startLocked(blockEvents, enc.first, enc.last, enc.count, raw)
	enc.nextBlock(b.buf)
	b.buf = raw
}

// startLocked starts compressing one sealed block, first committing the
// oldest block in flight when the pipeline is full.
func (lw *LogWriter) startLocked(typ byte, first, last, count int, raw []byte) *sealedBlock {
	if lw.pending == maxInFlight {
		lw.commitLocked()
	}
	b := &lw.inflight[(lw.head+lw.pending)%maxInFlight]
	lw.pending++
	b.typ, b.first, b.last, b.count, b.raw = typ, first, last, count, raw
	b.z = getDeflater()
	go b.compress()
	return b
}

// commitLocked waits for the oldest block in flight and writes it: frame
// header, CRC, payload and counters, latching the first
// error. Once an error is latched, later blocks are dropped unwritten.
// Waiting under the mutex cannot deadlock: compression never takes it.
func (lw *LogWriter) commitLocked() {
	b := &lw.inflight[lw.head]
	<-b.done
	lw.head = (lw.head + 1) % maxInFlight
	lw.pending--
	if b.err != nil && lw.err == nil {
		lw.err = b.err
	}
	if lw.err == nil {
		lw.writeBlockLocked(b.typ, b.first, b.last, b.count, len(b.raw), b.z.buf.Bytes())
	}
	putDeflater(b.z)
	b.z, b.raw = nil, nil
}

func (lw *LogWriter) drainLocked() {
	for lw.pending > 0 {
		lw.commitLocked()
	}
}

func (lw *LogWriter) writeBlockLocked(typ byte, first, last, count, rawLen int, comp []byte) {
	var hdr []byte
	hdr = append(hdr, blockMagic, typ)
	hdr = binary.AppendUvarint(hdr, uint64(first))
	hdr = binary.AppendUvarint(hdr, uint64(last))
	hdr = binary.AppendUvarint(hdr, uint64(count))
	hdr = binary.AppendUvarint(hdr, uint64(rawLen))
	hdr = binary.AppendUvarint(hdr, uint64(len(comp)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(comp))
	if err := lw.write(hdr); err != nil {
		return
	}
	if err := lw.write(comp); err != nil {
		return
	}
	lw.mBlocks.Inc()
}

// Flush seals the current partial block and writes every sealed block.
func (lw *LogWriter) Flush() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.sealLocked()
	lw.drainLocked()
	return lw.err
}

// Close seals the final block and returns the first error the writer
// encountered. The writer must not be used after Close.
func (lw *LogWriter) Close() error {
	return lw.Flush()
}

// FileLog is a LogWriter backed by a file it closes on Close.
type FileLog struct {
	*LogWriter
	f *os.File
}

// CreateLog creates path (truncating) and returns a FileLog writing hdr.
func CreateLog(path string, hdr Header) (*FileLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	lw, err := NewLogWriter(f, hdr)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileLog{LogWriter: lw, f: f}, nil
}

// Close seals the log and closes the file, returning the first error.
func (l *FileLog) Close() error {
	err := l.LogWriter.Close()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- varint helpers -------------------------------------------------------

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64((v<<1)^(v>>63)))
}

// byteCursor walks a decoded raw payload.
type byteCursor struct {
	b   []byte
	pos int
}

func (c *byteCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: bad varint at payload offset %d: %w", c.pos, ErrCorrupt)
	}
	c.pos += n
	return v, nil
}

func (c *byteCursor) zigzag() (int64, error) {
	u, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func (c *byteCursor) byte() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, fmt.Errorf("trace: truncated payload: %w", ErrCorrupt)
	}
	v := c.b[c.pos]
	c.pos++
	return v, nil
}

func (c *byteCursor) u64() (uint64, error) {
	if c.pos+8 > len(c.b) {
		return 0, fmt.Errorf("trace: truncated payload: %w", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint64(c.b[c.pos:])
	c.pos += 8
	return v, nil
}

func (c *byteCursor) take(n int) ([]byte, error) {
	if n < 0 || c.pos+n > len(c.b) {
		return nil, fmt.Errorf("trace: truncated payload: %w", ErrCorrupt)
	}
	v := c.b[c.pos : c.pos+n]
	c.pos += n
	return v, nil
}

func (c *byteCursor) ids(dst []int32) ([]int32, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.b)-c.pos) { // each id needs >= 1 byte
		return nil, fmt.Errorf("trace: id list longer than payload: %w", ErrCorrupt)
	}
	dst = dst[:0]
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		d, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		// A gap past MaxInt32 would wrap int64(d) negative.
		if d > math.MaxInt32 || prev+int64(d) > math.MaxInt32 {
			return nil, fmt.Errorf("trace: id overflow: %w", ErrCorrupt)
		}
		prev += int64(d)
		dst = append(dst, int32(prev))
	}
	return dst, nil
}
