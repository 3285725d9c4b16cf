package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// DeltaCodec encodes and decodes the body of a world delta: everything but
// its step, which the container frames. The body is
//
//	ids Nodes | uvarint x residuals | uvarint y residuals
//	ids RangeNodes | uvarint range residuals
//	byte faultChanged [ids Dead | ids DownGateways | byte partition [u64 cut]]
//
// where an id list is a count plus first-value-then-gap uvarints. Float
// samples are XORed against a per-node linear extrapolation from the two
// previous values (2*v1 - v2): mobility is piecewise constant-velocity and
// battery drain is linear, so the prediction is exact up to FP rounding
// and the residual has only a handful of low bits set — which the uvarint
// then stores in 1-3 bytes instead of 8. Encoder and decoder must see the
// same deltas in the same order; Reset restarts every chain (the log does
// so at each snapshot anchor, so a reader starting at any anchor decodes
// what the writer encoded). The binary log and network's trajectory
// replay both encode world change through this one type.
type DeltaCodec struct {
	x, y, r []laneState
	limit   int // when > 0, Decode rejects node IDs at or above it
}

// laneState is one node's predictor context in a float lane: the bit
// patterns of its last two values and how many the chain has seen.
type laneState struct {
	v1, v2 uint64 // most recent, second most recent
	seen   uint8  // saturates at 2
}

// NewDeltaCodec returns a codec with its predictor lanes presized for node
// IDs below n; a larger ID grows them.
func NewDeltaCodec(n int) *DeltaCodec {
	return &DeltaCodec{x: make([]laneState, n), y: make([]laneState, n), r: make([]laneState, n)}
}

// NewWorldDeltaCodec returns a codec for the deltas of one world of n
// nodes: NewDeltaCodec(n) whose Decode rejects a node ID of n or more as
// corrupt, so a malformed body can never grow its lanes past the world.
func NewWorldDeltaCodec(n int) *DeltaCodec {
	c := NewDeltaCodec(n)
	c.limit = n
	return c
}

// Reset restarts every predictor chain.
func (c *DeltaCodec) Reset() {
	clear(c.x)
	clear(c.y)
	clear(c.r)
}

// Append appends the body of d to b. Node lists must be ascending.
func (c *DeltaCodec) Append(b []byte, d WorldDelta) []byte {
	b = appendIDs(b, d.Nodes)
	for i, u := range d.Nodes {
		b = binary.AppendUvarint(b, xorLane(&c.x, int(u), math.Float64bits(d.X[i])))
	}
	for i, u := range d.Nodes {
		b = binary.AppendUvarint(b, xorLane(&c.y, int(u), math.Float64bits(d.Y[i])))
	}
	b = appendIDs(b, d.RangeNodes)
	for i, u := range d.RangeNodes {
		b = binary.AppendUvarint(b, xorLane(&c.r, int(u), math.Float64bits(d.Ranges[i])))
	}
	if !d.FaultChanged {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendIDs(b, d.Dead)
	b = appendIDs(b, d.DownGateways)
	if !d.Partition {
		return append(b, 0)
	}
	b = append(b, 1)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(d.PartitionX))
}

// Decode decodes one body from the front of b into d, reusing d's slices
// and leaving d.Step as it was, and returns the bytes it consumed. A
// malformed body yields an error wrapping ErrCorrupt.
func (c *DeltaCodec) Decode(b []byte, d *WorldDelta) (int, error) {
	*d = WorldDelta{
		Step:         d.Step,
		Nodes:        d.Nodes[:0],
		X:            d.X[:0],
		Y:            d.Y[:0],
		RangeNodes:   d.RangeNodes[:0],
		Ranges:       d.Ranges[:0],
		Dead:         d.Dead[:0],
		DownGateways: d.DownGateways[:0],
	}
	cur := &byteCursor{b: b}
	var err error
	if d.Nodes, err = cur.ids(d.Nodes); err != nil {
		return 0, err
	}
	if err := c.checkLaneIDs(d.Nodes); err != nil {
		return 0, err
	}
	if d.X, err = cur.lane(&c.x, d.Nodes, d.X); err != nil {
		return 0, err
	}
	if d.Y, err = cur.lane(&c.y, d.Nodes, d.Y); err != nil {
		return 0, err
	}
	if d.RangeNodes, err = cur.ids(d.RangeNodes); err != nil {
		return 0, err
	}
	if err := c.checkLaneIDs(d.RangeNodes); err != nil {
		return 0, err
	}
	if d.Ranges, err = cur.lane(&c.r, d.RangeNodes, d.Ranges); err != nil {
		return 0, err
	}
	fc, err := cur.byte()
	if err != nil {
		return 0, err
	}
	if fc > 1 {
		return 0, fmt.Errorf("trace: bad fault-changed flag %d: %w", fc, ErrCorrupt)
	}
	if fc == 1 {
		d.FaultChanged = true
		if d.Dead, err = cur.ids(d.Dead); err != nil {
			return 0, err
		}
		if d.DownGateways, err = cur.ids(d.DownGateways); err != nil {
			return 0, err
		}
		p, err := cur.byte()
		if err != nil {
			return 0, err
		}
		if p == 1 {
			d.Partition = true
			bits, err := cur.u64()
			if err != nil {
				return 0, err
			}
			d.PartitionX = math.Float64frombits(bits)
		}
	}
	return cur.pos, nil
}

// lane decodes one residual per node in ids against that node's predictor
// in lane, appending the values to dst.
func (cur *byteCursor) lane(lane *[]laneState, ids []int32, dst []float64) ([]float64, error) {
	for _, u := range ids {
		wire, err := cur.uvarint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, math.Float64frombits(unxorLane(lane, int(u), wire)))
	}
	return dst, nil
}

// checkLaneIDs rejects an ascending node ID list that names a node beyond
// the codec's world, or whose predictor lane (one laneState per node up
// to the largest ID) would outgrow the reader's maxBlockLen allocation cap.
func (c *DeltaCodec) checkLaneIDs(ids []int32) error {
	n := len(ids)
	if n == 0 {
		return nil
	}
	if top := ids[n-1]; c.limit > 0 && int(top) >= c.limit {
		return fmt.Errorf("trace: world delta names node %d in a world of %d: %w", top, c.limit, ErrCorrupt)
	}
	if (int64(ids[n-1])+1)*int64(unsafe.Sizeof(laneState{})) > maxBlockLen {
		return fmt.Errorf("trace: world delta names node %d, beyond any plausible world: %w", ids[n-1], ErrCorrupt)
	}
	return nil
}

func grow(s []laneState, n int) []laneState {
	if n <= len(s) {
		return s
	}
	return append(s, make([]laneState, n-len(s))...)
}

// predictLane returns the predicted bit pattern for node u's next value:
// 0 (absolute encoding) before any sample, the previous value after one,
// and the linear extrapolation 2*v1 - v2 from then on. Both 2*v1 and the
// subtraction are single correctly-rounded IEEE ops, so encoder and
// decoder compute bit-identical predictions on any platform.
func predictLane(lane *[]laneState, u int) uint64 {
	*lane = grow(*lane, u+1)
	st := (*lane)[u]
	switch st.seen {
	case 0:
		return 0
	case 1:
		return st.v1
	default:
		return math.Float64bits(2*math.Float64frombits(st.v1) - math.Float64frombits(st.v2))
	}
}

// pushLane records bits as node u's newest value. The lane is already
// grown by the predictLane call that precedes every push.
func pushLane(lane []laneState, u int, bits uint64) {
	st := &lane[u]
	st.v2, st.v1 = st.v1, bits
	if st.seen < 2 {
		st.seen++
	}
}

// xorLane runs one encode step of the predictor chain: the wire residual
// for bits at node u. unxorLane is its decode mirror.
func xorLane(lane *[]laneState, u int, bits uint64) uint64 {
	out := bits ^ predictLane(lane, u)
	pushLane(*lane, u, bits)
	return out
}

// unxorLane reverses xorLane: the wire residual XOR the decoder's own
// prediction yields the value, which then extends the chain.
func unxorLane(lane *[]laneState, u int, wire uint64) uint64 {
	v := wire ^ predictLane(lane, u)
	pushLane(*lane, u, v)
	return v
}

// appendIDs encodes an ascending id list as a count plus first-value-then-
// gap deltas.
func appendIDs(b []byte, ids []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	prev := int32(0)
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id-prev))
		prev = id
	}
	return b
}
