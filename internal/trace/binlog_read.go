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

	"repro/internal/metrics"
)

// ErrStop, returned by a Scan callback, ends the scan early without error.
var ErrStop = errors.New("stop scan")

// maxBlockLen caps per-block allocations while decoding, so a corrupt
// length field fails cleanly instead of attempting a huge allocation.
const maxBlockLen = 1 << 28

// RecordKind discriminates the records a scan yields.
type RecordKind uint8

const (
	RecordEvent  RecordKind = iota + 1 // Event is set
	RecordDelta                        // Delta is set
	RecordAnchor                       // Step and Anchor are set
)

// Record is one decoded log record. Delta's slices and Anchor alias reader
// scratch buffers: they are valid only for the duration of the callback and
// must be copied to be retained.
type Record struct {
	Kind   RecordKind
	Event  Event
	Delta  WorldDelta
	Step   int    // anchor records: the step the snapshot observes
	Anchor []byte // anchor records: serialised network.Snapshot JSON
}

// LogReader decodes a binary event log. Construct with OpenLog (a file) or
// NewLogReader (any io.ReadSeeker); Blocks builds the block index by
// scanning frame headers. Not safe for concurrent use.
type LogReader struct {
	r         io.ReadSeeker
	hdr       Header
	headerEnd int64
	blocks    []BlockInfo
	indexed   bool

	// slots hold block k, being decoded, and block k+1, being checked
	// and inflated on a helper goroutine (see scanBlocks).
	slots   [2]inflateSlot
	strings []string
	codec   DeltaCodec
	delta   WorldDelta

	mBlocks metrics.Counter
}

// NewLogReader parses the preamble of a binary log. Logs declaring a newer
// format version than LogVersion are rejected.
func NewLogReader(r io.ReadSeeker) (*LogReader, error) {
	cr := &countReader{r: r}
	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading log magic: %w", ErrCorrupt)
	}
	if magic != logMagic {
		return nil, fmt.Errorf("trace: bad log magic %q: %w", magic[:], ErrCorrupt)
	}
	ver, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("trace: reading log version: %w", ErrCorrupt)
	}
	if ver > LogVersion {
		return nil, fmt.Errorf("trace: log format version %d is newer than supported %d", ver, LogVersion)
	}
	hlen, err := binary.ReadUvarint(cr)
	if err != nil || hlen > maxBlockLen {
		return nil, fmt.Errorf("trace: reading log header length: %w", ErrCorrupt)
	}
	hb := make([]byte, hlen)
	if _, err := io.ReadFull(cr, hb); err != nil {
		return nil, fmt.Errorf("trace: truncated log header: %w", ErrCorrupt)
	}
	var hdr Header
	if err := json.Unmarshal(hb, &hdr); err != nil {
		return nil, fmt.Errorf("trace: decoding log header: %w", ErrCorrupt)
	}
	lr := &LogReader{r: r, hdr: hdr, headerEnd: cr.n}
	for i := range lr.slots {
		lr.slots[i].done = make(chan struct{}, 1)
	}
	return lr, nil
}

// OpenLog opens a binary log file. The caller owns closing the reader.
func OpenLog(path string) (*LogReader, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	lr, err := NewLogReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return lr, f.Close, nil
}

// Header returns the log's self-describing header.
func (lr *LogReader) Header() Header { return lr.hdr }

// Instrument registers the reader's replay_blocks_read counter on r.
func (lr *LogReader) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	lr.mBlocks = r.Counter("replay_blocks_read")
}

// Blocks returns the log's block index, scanning the frame headers to
// build it on the first call.
func (lr *LogReader) Blocks() ([]BlockInfo, error) {
	if lr.indexed {
		return lr.blocks, nil
	}
	if _, err := lr.r.Seek(lr.headerEnd, io.SeekStart); err != nil {
		return nil, err
	}
	lr.blocks = lr.blocks[:0]
	off := lr.headerEnd
	for {
		fr, hlen, err := readFrame(lr.r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		lr.blocks = append(lr.blocks, BlockInfo{Off: off, Type: fr.typ, First: fr.first, Last: fr.last, Count: fr.count})
		off += hlen + int64(fr.compLen)
		if _, err := lr.r.Seek(int64(fr.compLen), io.SeekCurrent); err != nil {
			return nil, err
		}
	}
	lr.indexed = true
	return lr.blocks, nil
}

// blockFrame is one decoded block header.
type blockFrame struct {
	typ                byte
	first, last, count int
	rawLen, compLen    int
	crc                uint32
}

// countReader adapts an io.Reader to io.ByteReader while counting consumed
// bytes.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(c.r, b[:])
	if err == nil {
		c.n++
	}
	return b[0], err
}

// readFrame parses one block header from r. A clean EOF on the first byte
// means end of log; any other shortfall is corruption. Returns the frame
// and the number of header bytes consumed.
func readFrame(r io.Reader) (*blockFrame, int64, error) {
	cr := &countReader{r: r}
	m, err := cr.ReadByte()
	if err == io.EOF {
		return nil, 0, io.EOF
	}
	if err != nil {
		return nil, 0, fmt.Errorf("trace: reading block magic: %w", ErrCorrupt)
	}
	if m != blockMagic {
		return nil, 0, fmt.Errorf("trace: bad block magic 0x%02x: %w", m, ErrCorrupt)
	}
	typ, err := cr.ReadByte()
	if err != nil || (typ != blockEvents && typ != blockAnchor) {
		return nil, 0, fmt.Errorf("trace: bad block type: %w", ErrCorrupt)
	}
	var vals [5]uint64
	for i := range vals {
		v, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, 0, fmt.Errorf("trace: truncated block header: %w", ErrCorrupt)
		}
		vals[i] = v
	}
	first, last, count, rawLen, compLen := vals[0], vals[1], vals[2], vals[3], vals[4]
	if rawLen > maxBlockLen || compLen > maxBlockLen || first > last {
		return nil, 0, fmt.Errorf("trace: implausible block header: %w", ErrCorrupt)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(cr, crcb[:]); err != nil {
		return nil, 0, fmt.Errorf("trace: truncated block header: %w", ErrCorrupt)
	}
	return &blockFrame{
		typ:     typ,
		first:   int(first),
		last:    int(last),
		count:   int(count),
		rawLen:  int(rawLen),
		compLen: int(compLen),
		crc:     binary.LittleEndian.Uint32(crcb[:]),
	}, cr.n, nil
}

// inflateSlot is one block in the reader's read-ahead. The caller's
// goroutine reads its frame and compressed bytes (the io.ReadSeeker is
// never shared); a helper goroutine then checks the CRC and inflates the
// payload, and signals done.
type inflateSlot struct {
	fr      blockFrame
	comp    []byte
	raw     []byte
	zr      gzip.Reader
	err     error
	running bool
	done    chan struct{} // one send per inflate
}

// fetch reads the framed block at off into s and starts inflating it. A
// read error is kept in s.err, to surface when the scan reaches the block.
func (lr *LogReader) fetch(off int64, s *inflateSlot) {
	s.err = lr.readFramed(off, s)
	if s.err == nil {
		s.running = true
		go s.inflate()
	}
}

func (lr *LogReader) readFramed(off int64, s *inflateSlot) error {
	if _, err := lr.r.Seek(off, io.SeekStart); err != nil {
		return err
	}
	fr, _, err := readFrame(lr.r)
	if err == io.EOF {
		return fmt.Errorf("trace: block offset %d beyond log end: %w", off, ErrCorrupt)
	}
	if err != nil {
		return err
	}
	s.fr = *fr
	if cap(s.comp) < fr.compLen {
		s.comp = make([]byte, fr.compLen)
	}
	s.comp = s.comp[:fr.compLen]
	if _, err := io.ReadFull(lr.r, s.comp); err != nil {
		return fmt.Errorf("trace: truncated block payload: %w", ErrCorrupt)
	}
	return nil
}

func (s *inflateSlot) inflate() {
	s.err = s.decompress()
	s.done <- struct{}{}
}

// decompress verifies the CRC and inflates the payload into s.raw.
func (s *inflateSlot) decompress() error {
	if got := crc32.ChecksumIEEE(s.comp); got != s.fr.crc {
		return fmt.Errorf("trace: block CRC mismatch (got %08x want %08x): %w", got, s.fr.crc, ErrCorrupt)
	}
	if err := s.zr.Reset(bytes.NewReader(s.comp)); err != nil {
		return fmt.Errorf("trace: block gzip header: %w", ErrCorrupt)
	}
	if cap(s.raw) < s.fr.rawLen {
		s.raw = make([]byte, s.fr.rawLen)
	}
	s.raw = s.raw[:s.fr.rawLen]
	if _, err := io.ReadFull(&s.zr, s.raw); err != nil {
		return fmt.Errorf("trace: block decompression: %w", ErrCorrupt)
	}
	var one [1]byte
	if n, _ := s.zr.Read(one[:]); n != 0 {
		return fmt.Errorf("trace: block longer than declared raw length: %w", ErrCorrupt)
	}
	return nil
}

// wait returns once no helper goroutine is inflating into s.
func (s *inflateSlot) wait() {
	if s.running {
		<-s.done
		s.running = false
	}
}

// Scan decodes every record in the log in order, invoking fn for each.
// fn returning ErrStop ends the scan cleanly; any other error aborts.
func (lr *LogReader) Scan(fn func(Record) error) error {
	blocks, err := lr.Blocks()
	if err != nil {
		return err
	}
	return lr.scanBlocks(blocks, fn)
}

// AnchorIndexBefore returns the index (into Blocks) of the last anchor
// block observing a step <= step, or -1 if none exists.
func (lr *LogReader) AnchorIndexBefore(step int) (int, error) {
	blocks, err := lr.Blocks()
	if err != nil {
		return 0, err
	}
	best := -1
	for i, b := range blocks {
		if b.Type == blockAnchor && b.First <= step {
			best = i
		}
	}
	return best, nil
}

// ScanFrom decodes records starting at block index from (which must be an
// anchor block or 0: the world-delta XOR chain resets there). fn returning
// ErrStop ends the scan cleanly.
func (lr *LogReader) ScanFrom(from int, fn func(Record) error) error {
	blocks, err := lr.Blocks()
	if err != nil {
		return err
	}
	if from < 0 || from > len(blocks) {
		return fmt.Errorf("trace: scan start block %d out of range [0,%d]", from, len(blocks))
	}
	if from > 0 && blocks[from].Type != blockAnchor {
		return fmt.Errorf("trace: scan must start at an anchor block (block %d is not)", from)
	}
	return lr.scanBlocks(blocks[from:], fn)
}

// scanBlocks decodes blocks in order, inflating block k+1 on a helper
// goroutine while block k's records are decoded. Errors surface in block
// order, and the helper is awaited before scanBlocks returns.
func (lr *LogReader) scanBlocks(blocks []BlockInfo, fn func(Record) error) error {
	lr.codec.Reset()
	if len(blocks) == 0 {
		return nil
	}
	cur, next := &lr.slots[0], &lr.slots[1]
	lr.fetch(blocks[0].Off, cur)
	for k := range blocks {
		cur.wait()
		if cur.err == nil && k+1 < len(blocks) {
			lr.fetch(blocks[k+1].Off, next)
		}
		err := cur.err
		if err == nil {
			lr.mBlocks.Inc()
			err = lr.decodeBlock(&cur.fr, cur.raw, fn)
		}
		if err != nil {
			next.wait()
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
		cur, next = next, cur
	}
	return nil
}

// decodeBlock yields the records of one inflated block.
func (lr *LogReader) decodeBlock(fr *blockFrame, raw []byte, fn func(Record) error) error {
	if fr.typ == blockAnchor {
		lr.codec.Reset()
		return fn(Record{Kind: RecordAnchor, Step: fr.first, Anchor: raw})
	}
	return lr.decodeEvents(fr, raw, fn)
}

// decodeEvents walks one events block's payload, yielding records.
func (lr *LogReader) decodeEvents(fr *blockFrame, raw []byte, fn func(Record) error) error {
	cur := &byteCursor{b: raw}
	lr.strings = lr.strings[:0]
	prevStep := fr.first
	for cur.pos < len(cur.b) {
		tag, err := cur.byte()
		if err != nil {
			return err
		}
		sd, err := cur.zigzag()
		if err != nil {
			return err
		}
		step := prevStep + int(sd)
		prevStep = step
		switch tag {
		case recEvent:
			e, err := lr.decodeEvent(cur, step)
			if err != nil {
				return err
			}
			if err := fn(Record{Kind: RecordEvent, Event: e}); err != nil {
				return err
			}
		case recDelta:
			n, err := lr.codec.Decode(cur.b[cur.pos:], &lr.delta)
			if err != nil {
				return err
			}
			cur.pos += n
			lr.delta.Step = step
			if err := fn(Record{Kind: RecordDelta, Delta: lr.delta}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("trace: unknown record tag %d: %w", tag, ErrCorrupt)
		}
	}
	return nil
}

func (lr *LogReader) decodeEvent(cur *byteCursor, step int) (Event, error) {
	e := Event{Step: step}
	code, err := cur.byte()
	if err != nil {
		return e, err
	}
	if code == 0 {
		s, err := lr.readString(cur)
		if err != nil {
			return e, err
		}
		e.Kind = Kind(s)
	} else if int(code) < len(codeToKind) {
		e.Kind = codeToKind[code]
	} else {
		return e, fmt.Errorf("trace: unknown event kind code %d: %w", code, ErrCorrupt)
	}
	mask, err := cur.byte()
	if err != nil {
		return e, err
	}
	if mask&maskAgent != 0 {
		v, err := cur.zigzag()
		if err != nil {
			return e, err
		}
		e.Agent = int32(v)
	}
	if mask&maskNode != 0 {
		v, err := cur.zigzag()
		if err != nil {
			return e, err
		}
		e.Node = int32(v)
	}
	if mask&maskTo != 0 {
		v, err := cur.zigzag()
		if err != nil {
			return e, err
		}
		e.To = int32(v)
	}
	if mask&maskValue != 0 {
		bits, err := cur.u64()
		if err != nil {
			return e, err
		}
		e.Value = math.Float64frombits(bits)
	}
	if mask&maskExtra != 0 {
		s, err := lr.readString(cur)
		if err != nil {
			return e, err
		}
		e.Extra = s
	}
	return e, nil
}

// readString resolves a block-local interned string id, absorbing an
// inline definition when the id is new.
func (lr *LogReader) readString(cur *byteCursor) (string, error) {
	id, err := cur.uvarint()
	if err != nil {
		return "", err
	}
	if id < uint64(len(lr.strings)) {
		return lr.strings[id], nil
	}
	if id != uint64(len(lr.strings)) {
		return "", fmt.Errorf("trace: string id %d skips table (len %d): %w", id, len(lr.strings), ErrCorrupt)
	}
	n, err := cur.uvarint()
	if err != nil {
		return "", err
	}
	b, err := cur.take(int(n))
	if err != nil {
		return "", err
	}
	s := string(b)
	lr.strings = append(lr.strings, s)
	return s, nil
}
