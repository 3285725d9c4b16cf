// Package knowledge implements the state a mobile agent carries: what it
// knows about the topology (first- and second-hand), which nodes it has
// visited and when, and — in the routing scenario — the trail back to the
// last gateway it saw.
package knowledge

import (
	"math/bits"

	"repro/internal/graph"
)

// NodeID aliases graph.NodeID.
type NodeID = graph.NodeID

// Source labels how a piece of knowledge was obtained.
type Source uint8

const (
	// Unknown means the agent knows nothing about the node.
	Unknown Source = iota
	// SecondHand knowledge was learned from another agent.
	SecondHand
	// FirstHand knowledge was experienced directly.
	FirstHand
)

// Topology is an agent's accumulating model of the network: for each node,
// the full out-neighbour list once learned, tagged first- or second-hand.
// The paper's "knowledge" metric counts learned nodes; "perfect knowledge"
// means every node's neighbour list is known.
//
// Alongside the per-node source tags, a known-set bitmask (one bit per
// node) mirrors "source != Unknown". Learning only ever sets bits, so
// set-difference questions — which records does a peer hold that I lack? —
// collapse to word-parallel scans over the masks, 64 nodes per AND-NOT.
//
// The per-node neighbour-list index is allocated on the first learn, so
// an agent that never learns anything (a routing agent) costs no 24-byte
// slice header per node.
type Topology struct {
	source []Source
	mask   []uint64   // bit u set ⇔ source[u] != Unknown
	adj    [][]NodeID // nil until the first learn
	known  int
}

// maskWords returns the number of 64-bit words covering n nodes.
func maskWords(n int) int { return (n + 63) / 64 }

// NewTopology returns empty knowledge over an n-node network.
func NewTopology(n int) *Topology {
	return &Topology{
		source: make([]Source, n),
		mask:   make([]uint64, maskWords(n)),
	}
}

// Reset returns t to empty knowledge over an n-node network, reusing all
// of its storage (per-node neighbour lists keep their capacity). A reset
// topology behaves exactly like a fresh one, so pooled per-run agent state
// can recycle it without allocating.
func (t *Topology) Reset(n int) {
	if cap(t.source) < n {
		t.source = make([]Source, n)
	}
	t.source = t.source[:n]
	clear(t.source)
	words := maskWords(n)
	if cap(t.mask) < words {
		t.mask = make([]uint64, words)
	}
	t.mask = t.mask[:words]
	clear(t.mask)
	if cap(t.adj) < n {
		t.adj = nil // reallocated by the next learn
	} else {
		t.adj = t.adj[:n]
	}
	for u := range t.adj {
		if t.adj[u] != nil {
			t.adj[u] = t.adj[u][:0]
		}
	}
	t.known = 0
}

// N returns the network size this knowledge covers.
func (t *Topology) N() int { return len(t.source) }

// KnownCount returns how many nodes' neighbour lists are known.
func (t *Topology) KnownCount() int { return t.known }

// Fraction returns the fraction of nodes known, in [0, 1].
func (t *Topology) Fraction() float64 {
	if len(t.source) == 0 {
		return 1
	}
	return float64(t.known) / float64(len(t.source))
}

// Complete reports whether every node is known.
func (t *Topology) Complete() bool { return t.known == len(t.source) }

// SourceOf returns how node u's neighbourhood is known.
func (t *Topology) SourceOf(u NodeID) Source { return t.source[u] }

// Knows reports whether node u's neighbourhood is known at all.
func (t *Topology) Knows(u NodeID) bool { return t.source[u] != Unknown }

// KnownMask returns the known-set bitmask: bit u of word u/64 is set iff
// node u is known. The slice is owned by t and mutates as t learns;
// callers must not modify it. Meeting exchanges snapshot it to find the
// records a peer can contribute with word-parallel AND-NOT scans.
func (t *Topology) KnownMask() []uint64 { return t.mask }

// LearnFirstHand records node u's out-neighbour list as directly
// experienced. First-hand knowledge always overwrites second-hand (the
// network may have changed since the peer learned it).
func (t *Topology) LearnFirstHand(u NodeID, neighbors []NodeID) {
	if t.source[u] == Unknown {
		t.known++
		t.mask[u>>6] |= 1 << (uint(u) & 63)
	}
	t.source[u] = FirstHand
	t.setAdj(u, neighbors)
}

// LearnSecondHand records hearsay about node u. It never overwrites
// first-hand knowledge.
func (t *Topology) LearnSecondHand(u NodeID, neighbors []NodeID) {
	if t.source[u] == FirstHand {
		return
	}
	if t.source[u] == Unknown {
		t.known++
		t.mask[u>>6] |= 1 << (uint(u) & 63)
	}
	t.source[u] = SecondHand
	t.setAdj(u, neighbors)
}

// setAdj stores u's neighbour list, allocating the index on first use.
func (t *Topology) setAdj(u NodeID, neighbors []NodeID) {
	if t.adj == nil {
		t.adj = make([][]NodeID, len(t.source))
	}
	t.adj[u] = append(t.adj[u][:0], neighbors...)
}

// MergeFrom copies everything other knows that t does not, as second-hand
// knowledge. It returns the number of node records transferred, which the
// overhead accounting uses as the message size of the exchange. The
// transferable set comes from a word-parallel scan of the known masks
// (other &^ t), so a merge with nothing to move costs O(n/64) instead of
// O(n), and records are visited in ascending node order exactly as the
// per-node scan did.
func (t *Topology) MergeFrom(other *Topology) int {
	moved := 0
	for wi, ow := range other.mask {
		missing := ow &^ t.mask[wi]
		for missing != 0 {
			u := NodeID(wi<<6 + bits.TrailingZeros64(missing))
			missing &= missing - 1
			t.LearnSecondHand(u, other.adj[u])
			moved++
		}
	}
	return moved
}

// Neighbors returns the known out-neighbour list for u (nil or empty if
// unknown). Callers must not modify the returned slice.
func (t *Topology) Neighbors(u NodeID) []NodeID {
	if t.adj == nil {
		return nil
	}
	return t.adj[u]
}

// Clone returns a deep copy. All neighbour lists are packed into one flat
// backing array, so a clone costs at most five allocations however many
// nodes are known; the clone remains fully mutable (learning a longer list
// than a node's packed capacity migrates that list to its own storage).
func (t *Topology) Clone() *Topology {
	c := &Topology{
		source: append([]Source(nil), t.source...),
		mask:   append([]uint64(nil), t.mask...),
		known:  t.known,
	}
	if t.adj == nil {
		return c
	}
	c.adj = make([][]NodeID, len(t.adj))
	total := 0
	for u := range t.adj {
		total += len(t.adj[u])
	}
	flat := make([]NodeID, 0, total)
	for u := range t.adj {
		if t.adj[u] == nil {
			continue
		}
		start := len(flat)
		flat = append(flat, t.adj[u]...)
		c.adj[u] = flat[start:len(flat):len(flat)]
	}
	return c
}
