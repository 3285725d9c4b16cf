package network

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/radio"
)

// SnapshotVersion is the current snapshot format version. Version history:
//
//	0/1  unversioned legacy format: arena, positions, ranges, gateways
//	2    adds fault state: dead nodes, out-of-service gateways, partition
//
// Readers accept any version up to the current one (absent fields default
// to fault-free) and reject newer versions with a clear error instead of
// silently misparsing them.
const SnapshotVersion = 2

// Snapshot is a serialisable capture of a world at one instant: node
// positions, *current* radio ranges (including any fault degradation), the
// gateway set, and — when fault injection is active — the fault state
// (dead nodes, out-of-service gateways, partition cut). Loading a snapshot
// yields a static world with exactly the captured topology, bit for bit —
// mobility, battery state and the fault schedule are deliberately not
// captured (movers carry RNG state), so snapshots are for sharing fixture
// networks, not for checkpointing dynamic runs. Dynamic runs are reproduced
// from (spec, seed) instead.
type Snapshot struct {
	Version   int          `json:"version"`
	Arena     geom.Rect    `json:"arena"`
	Positions []geom.Point `json:"positions"`
	Ranges    []float64    `json:"ranges"`
	Gateways  []NodeID     `json:"gateways,omitempty"`

	// Fault state (version >= 2). Dead lists nodes currently down,
	// DownGateways lists gateways out of service (but alive), and
	// PartitionX is the active partition's vertical cut, if any.
	Dead         []NodeID `json:"dead,omitempty"`
	DownGateways []NodeID `json:"down_gateways,omitempty"`
	PartitionX   *float64 `json:"partition_x,omitempty"`
}

// Snapshot captures the world's current geometry and fault state.
func (w *World) Snapshot() Snapshot {
	var s Snapshot
	w.SnapshotInto(&s)
	return s
}

// SnapshotInto captures the world into dst, reusing dst's slices — the
// allocation-free form of Snapshot for callers that compare the world
// against a reconstruction every step. dst must not share storage with a
// snapshot the caller still reads.
func (w *World) SnapshotInto(dst *Snapshot) {
	n := w.N()
	dst.Version = SnapshotVersion
	dst.Arena = w.arena
	dst.Positions = append(dst.Positions[:0], w.pos...)
	if dst.Ranges == nil || cap(dst.Ranges) < n {
		dst.Ranges = make([]float64, n) // non-nil even at n=0: JSON "[]"
	}
	dst.Ranges = dst.Ranges[:n]
	for i := range dst.Ranges {
		dst.Ranges[i] = w.radios[i].Range()
	}
	dst.Gateways = append(dst.Gateways[:0], w.gateways...)
	dst.Dead, dst.DownGateways = w.appendFaultMasks(dst.Dead[:0], dst.DownGateways[:0])
	dst.PartitionX = nil
	if x, ok := w.Partition(); ok {
		dst.PartitionX = &x
	}
}

// World builds a static world from the snapshot, re-applying any captured
// fault state so the restored topology matches the captured one bit for
// bit.
func (s Snapshot) World() (*World, error) {
	if s.Version > SnapshotVersion {
		return nil, fmt.Errorf("network: snapshot version %d is newer than the supported version %d — rebuild or upgrade",
			s.Version, SnapshotVersion)
	}
	if len(s.Positions) != len(s.Ranges) {
		return nil, fmt.Errorf("network: snapshot has %d positions but %d ranges",
			len(s.Positions), len(s.Ranges))
	}
	radios := make([]radio.Radio, len(s.Ranges))
	movers := make([]mobility.Mover, len(s.Ranges))
	for i, r := range s.Ranges {
		if r < 0 {
			return nil, fmt.Errorf("network: snapshot range %d is negative", i)
		}
		radios[i] = radio.New(r)
		movers[i] = mobility.Static{}
	}
	w, err := NewWorld(Config{
		Arena:     s.Arena,
		Positions: s.Positions,
		Radios:    radios,
		Movers:    movers,
		Gateways:  s.Gateways,
	})
	if err != nil {
		return nil, err
	}
	if len(s.Dead) > 0 || len(s.DownGateways) > 0 || s.PartitionX != nil {
		// Snapshot worlds are static, so the incremental engine is off and
		// no topology watcher exists yet: one rebuild under the restored
		// masks yields the captured links.
		partX := 0.0
		if s.PartitionX != nil {
			partX = *s.PartitionX
		}
		if err := w.setFaultMasks(s.Dead, s.DownGateways, s.PartitionX != nil, partX); err != nil {
			return nil, fmt.Errorf("network: snapshot %w", err)
		}
		w.rebuildTopology()
	}
	return w, nil
}

// WriteSnapshot serialises the world's snapshot as JSON.
func WriteSnapshot(w *World, out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", " ")
	if err := enc.Encode(w.Snapshot()); err != nil {
		return fmt.Errorf("network: encoding snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot deserialises a snapshot and builds the static world.
func ReadSnapshot(in io.Reader) (*World, error) {
	var s Snapshot
	if err := json.NewDecoder(in).Decode(&s); err != nil {
		return nil, fmt.Errorf("network: decoding snapshot: %w", err)
	}
	return s.World()
}
