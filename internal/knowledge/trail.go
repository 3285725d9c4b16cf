package knowledge

// Trail is the routing-scenario history an agent carries: the walk from
// the most recently visited gateway to its current node, bounded by the
// agent's history size. While the trail is still anchored at a gateway it
// lets the agent deposit a route (gateway, next hop, hop count) into every
// node it lands on; once the gateway end falls off the bounded history the
// agent has nothing valid to offer until it sees a gateway again.
//
// Loops are compacted: re-entering a node already on the trail truncates
// back to that occurrence, so deposited routes never contain cycles.
type Trail struct {
	capacity int
	nodes    []NodeID // nodes[0] is the gateway while anchored
	anchored bool
}

// NewTrail returns a trail bounded to capacity nodes. capacity must be at
// least 2 to ever deposit a route (gateway + one hop); smaller values are
// raised to 2.
func NewTrail(capacity int) *Trail {
	if capacity < 2 {
		capacity = 2
	}
	return &Trail{capacity: capacity}
}

// Reset empties t and bounds it at capacity, keeping its storage:
// afterwards t behaves exactly like NewTrail(capacity).
func (t *Trail) Reset(capacity int) {
	if capacity < 2 {
		capacity = 2
	}
	t.capacity = capacity
	t.Clear()
}

// Capacity returns the history bound.
func (t *Trail) Capacity() int { return t.capacity }

// Len returns the current trail length in nodes.
func (t *Trail) Len() int { return len(t.nodes) }

// Anchored reports whether the trail still starts at a gateway.
func (t *Trail) Anchored() bool { return t.anchored }

// Gateway returns the anchoring gateway. Valid only while Anchored.
func (t *Trail) Gateway() NodeID {
	if !t.anchored || len(t.nodes) == 0 {
		return -1
	}
	return t.nodes[0]
}

// Hops returns the hop distance from the gateway to the trail's current
// end, or -1 if the trail is not anchored.
func (t *Trail) Hops() int {
	if !t.anchored {
		return -1
	}
	return len(t.nodes) - 1
}

// Current returns the node at the end of the trail, or -1 if empty.
func (t *Trail) Current() NodeID {
	if len(t.nodes) == 0 {
		return -1
	}
	return t.nodes[len(t.nodes)-1]
}

// ResetAt restarts the trail at gateway gw (the agent just landed on it).
func (t *Trail) ResetAt(gw NodeID) {
	t.nodes = append(t.nodes[:0], gw)
	t.anchored = true
}

// Clear empties the trail and drops the anchor — the state of an agent
// that has never seen a gateway. Respawned agents (teleported off a dead
// node by fault handling) clear their trail: the recorded walk no longer
// connects to their new position, so deposits from it would be bogus.
func (t *Trail) Clear() {
	t.nodes = t.nodes[:0]
	t.anchored = false
}

// Extend records a move onto node v. Loops are compacted; when the bounded
// history overflows, the oldest node (the gateway end) is dropped and the
// trail becomes unanchored.
func (t *Trail) Extend(v NodeID) {
	for i, u := range t.nodes {
		if u == v {
			t.nodes = t.nodes[:i+1]
			return
		}
	}
	t.nodes = append(t.nodes, v)
	if len(t.nodes) > t.capacity {
		copy(t.nodes, t.nodes[1:])
		t.nodes = t.nodes[:len(t.nodes)-1]
		t.anchored = false
	}
}

// NextHopBack returns the node preceding the current one on the trail —
// the next hop a deposited route should use — and whether one exists.
func (t *Trail) NextHopBack() (NodeID, bool) {
	if !t.anchored || len(t.nodes) < 2 {
		return -1, false
	}
	return t.nodes[len(t.nodes)-2], true
}

// BetterThan reports whether t offers a strictly shorter anchored route
// than other.
func (t *Trail) BetterThan(other *Trail) bool {
	if !t.anchored {
		return false
	}
	if !other.anchored {
		return true
	}
	return t.Hops() < other.Hops()
}

// CopyFrom makes t an exact copy of other's contents (capacity keeps t's
// own bound; if other is longer than t's capacity the oldest nodes are
// dropped and the anchor is lost).
func (t *Trail) CopyFrom(other *Trail) {
	t.nodes = append(t.nodes[:0], other.nodes...)
	t.anchored = other.anchored
	for len(t.nodes) > t.capacity {
		copy(t.nodes, t.nodes[1:])
		t.nodes = t.nodes[:len(t.nodes)-1]
		t.anchored = false
	}
}

// At returns the i-th trail node, gateway end first. It panics if i is
// out of range.
func (t *Trail) At(i int) NodeID { return t.nodes[i] }

// Nodes returns a copy of the trail contents, gateway end first.
func (t *Trail) Nodes() []NodeID {
	return append([]NodeID(nil), t.nodes...)
}
