// Package stigmergy implements the paper's footprint mechanism: before an
// agent leaves a node it imprints its chosen next-hop there, and later
// agents (or the same agent coming back) treat recently imprinted
// neighbours as "someone already went that way" and prefer the others.
// This is the inverse of ant pheromone trails — marks repel instead of
// attract — and costs one table write per agent step.
package stigmergy

import (
	"slices"

	"repro/internal/graph"
)

// NodeID aliases graph.NodeID.
type NodeID = graph.NodeID

// Mark is one footprint: at Step, some agent left the node toward Target.
type Mark struct {
	Target NodeID
	Step   int
}

// Board stores the footprints for every node in the network. Marks never
// expire: displacement by newer marks is the only forgetting. Construct
// with NewBoard, or Reset a zero Board.
type Board struct {
	perNode int
	marks   [][]Mark
}

// NewBoard returns a board for an n-node network keeping at most perNode
// recent marks per node (older marks are displaced).
func NewBoard(n, perNode int) *Board {
	b := new(Board)
	b.Reset(n, perNode)
	return b
}

// PerNode returns the per-node mark capacity.
func (b *Board) PerNode() int { return b.perNode }

// Leave imprints "I am heading to target" on node at the given step.
func (b *Board) Leave(node, target NodeID, step int) {
	ms := b.marks[node]
	// Replace an existing mark for the same target instead of duplicating.
	for i := range ms {
		if ms[i].Target == target {
			ms[i].Step = step
			b.marks[node] = ms
			return
		}
	}
	if len(ms) >= b.perNode {
		// Displace the oldest mark (they are kept in arrival order, and
		// same-target refreshes do not reorder, so index of the minimum
		// step is the victim).
		victim := 0
		for i := 1; i < len(ms); i++ {
			if ms[i].Step < ms[victim].Step {
				victim = i
			}
		}
		ms = append(ms[:victim], ms[victim+1:]...)
	}
	b.marks[node] = append(ms, Mark{Target: target, Step: step})
}

// IsMarked reports whether node carries a mark toward target.
func (b *Board) IsMarked(node, target NodeID) bool {
	for _, m := range b.marks[node] {
		if m.Target == target {
			return true
		}
	}
	return false
}

// Unmarked appends to dst the candidates that carry no mark on node, and
// returns the extended slice. If every candidate is marked the result is
// empty — callers then fall back to the full candidate set.
func (b *Board) Unmarked(node NodeID, candidates []NodeID, dst []NodeID) []NodeID {
	for _, c := range candidates {
		if !b.IsMarked(node, c) {
			dst = append(dst, c)
		}
	}
	return dst
}

// Marks returns a copy of the marks on node.
func (b *Board) Marks(node NodeID) []Mark {
	return append([]Mark(nil), b.marks[node]...)
}

// Reset turns b into the board NewBoard(n, perNode) would build, reusing
// its per-node storage, so harnesses can recycle one board from run to
// run. The zero Board is a valid receiver.
func (b *Board) Reset(n, perNode int) {
	b.perNode = max(perNode, 1)
	if n > cap(b.marks) {
		b.marks = slices.Grow(b.marks[:cap(b.marks)], n-cap(b.marks))
	}
	b.marks = b.marks[:n]
	for i := range b.marks {
		b.marks[i] = b.marks[i][:0]
	}
}
