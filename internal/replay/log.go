// Log-driven replay: everything that turns a durable binary event log back
// into worlds and statistics without re-simulating. A recorded log carries
// three streams — events, per-step world deltas, and periodic full snapshot
// anchors — plus a self-describing header naming the scenario that produced
// it (RunMeta). From those, this file reconstructs the world at any
// recorded step (nearest anchor + delta tail), verifies a log against a
// fresh simulation step by step, builds streaming summaries, and exports
// the event stream as JSON Lines.
package replay

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/faults"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/trace"
)

// RunMeta describes the run a log records — enough to regenerate the same
// world (and fault schedule) from scratch, which is what log verification
// does. It travels as the log header's Config blob.
type RunMeta struct {
	// Scenario names the harness: "routing" or "mapping".
	Scenario string `json:"scenario"`
	// Spec is the generator specification of the recorded world.
	Spec netgen.Spec `json:"spec"`
	// WorldSeed seeds world generation (and the fault preset).
	WorldSeed uint64 `json:"world_seed"`
	// Seed is the run seed (agent placement and per-agent streams).
	Seed uint64 `json:"seed"`
	// Steps is the fault-schedule horizon: FreshWorld compiles FaultPreset
	// over this many steps, exactly as the recording harness did. Routing
	// records its run length here; mapping records its capped horizon.
	Steps int `json:"steps"`
	// FaultPreset, when non-empty, names the injected fault preset
	// (faults.Preset), compiled for the generated world with WorldSeed.
	FaultPreset string `json:"fault_preset,omitempty"`
	// AnchorEvery is the snapshot-anchor cadence the recorder used.
	AnchorEvery int `json:"anchor_every"`
}

// NewLogHeader builds the binary log header for a run: the run seed plus
// the full RunMeta as the config blob (hashed by the writer).
func NewLogHeader(meta RunMeta) (trace.Header, error) {
	cfg, err := json.Marshal(meta)
	if err != nil {
		return trace.Header{}, fmt.Errorf("replay: encoding run meta: %w", err)
	}
	return trace.Header{BaseSeed: meta.Seed, Config: cfg}, nil
}

// MetaFromHeader decodes the RunMeta a log header carries.
func MetaFromHeader(h trace.Header) (RunMeta, error) {
	var m RunMeta
	if len(h.Config) == 0 {
		return m, fmt.Errorf("replay: log header carries no run configuration")
	}
	if err := json.Unmarshal(h.Config, &m); err != nil {
		return m, fmt.Errorf("replay: decoding run meta: %w", err)
	}
	return m, nil
}

// FreshWorld regenerates the recorded run's world — same spec, same seed,
// same fault schedule — exactly as the recording harness built it.
func (m RunMeta) FreshWorld() (*network.World, error) {
	w, err := netgen.Generate(m.Spec, m.WorldSeed)
	if err != nil {
		return nil, fmt.Errorf("replay: regenerating world: %w", err)
	}
	if m.FaultPreset != "" {
		sched, err := faults.Preset(m.FaultPreset, w.N(), w.Gateways(), m.Steps, m.WorldSeed)
		if err != nil {
			return nil, fmt.Errorf("replay: rebuilding fault schedule: %w", err)
		}
		w.SetFaults(sched)
	}
	return w, nil
}

// ReconstructAt rebuilds the world state at the given step from the log
// alone: the nearest snapshot anchor at or before step, plus the world
// deltas in between. The returned snapshot is exactly what the recording
// harness observed at that step; call .World() on it to get a live static
// world.
func ReconstructAt(lr *trace.LogReader, step int) (network.Snapshot, error) {
	var snap network.Snapshot
	idx, err := lr.AnchorIndexBefore(step)
	if err != nil {
		return snap, err
	}
	if idx < 0 {
		return snap, fmt.Errorf("replay: log has no snapshot anchor at or before step %d", step)
	}
	found := false
	err = lr.ScanFrom(idx, func(r trace.Record) error {
		switch r.Kind {
		case trace.RecordAnchor:
			if r.Step > step {
				return trace.ErrStop
			}
			if err := json.Unmarshal(r.Anchor, &snap); err != nil {
				return fmt.Errorf("replay: decoding anchor at step %d: %w", r.Step, err)
			}
			found = true
		case trace.RecordDelta:
			if r.Delta.Step > step {
				return trace.ErrStop
			}
			if found {
				return applyDelta(&snap, r.Delta)
			}
		}
		return nil
	})
	if err != nil {
		return snap, err
	}
	if !found {
		return snap, fmt.Errorf("replay: log has no snapshot anchor at or before step %d", step)
	}
	return snap, nil
}

// applyDelta folds one recorded world delta into a snapshot: changed
// positions and radio ranges, plus — on fault transitions — the complete
// replacement fault state. A delta naming a node the snapshot does not
// hold is corrupt.
func applyDelta(s *network.Snapshot, d trace.WorldDelta) error {
	for _, c := range [...]struct {
		what string
		ids  []int32
		n    int
	}{
		{"moved node", d.Nodes, len(s.Positions)},
		{"range node", d.RangeNodes, len(s.Ranges)},
		{"dead node", d.Dead, len(s.Positions)},
		{"down gateway", d.DownGateways, len(s.Positions)},
	} {
		for _, u := range c.ids {
			if u < 0 || int(u) >= c.n {
				return fmt.Errorf("replay: delta at step %d names %s %d outside the %d-node world: %w",
					d.Step, c.what, u, c.n, trace.ErrCorrupt)
			}
		}
	}
	for i, u := range d.Nodes {
		s.Positions[u].X = d.X[i]
		s.Positions[u].Y = d.Y[i]
	}
	for i, u := range d.RangeNodes {
		s.Ranges[u] = d.Ranges[i]
	}
	if !d.FaultChanged {
		return nil
	}
	s.Dead = s.Dead[:0]
	for _, u := range d.Dead {
		s.Dead = append(s.Dead, network.NodeID(u))
	}
	if len(s.Dead) == 0 {
		s.Dead = nil
	}
	s.DownGateways = s.DownGateways[:0]
	for _, g := range d.DownGateways {
		s.DownGateways = append(s.DownGateways, network.NodeID(g))
	}
	if len(s.DownGateways) == 0 {
		s.DownGateways = nil
	}
	if d.Partition {
		x := d.PartitionX
		s.PartitionX = &x
	} else {
		s.PartitionX = nil
	}
	return nil
}

// VerifyAt reconstructs the world at step from the log and compares it
// bit-for-bit against a fresh simulation of the recorded run advanced to
// the same step. A nil error means the reconstruction is exact.
func VerifyAt(lr *trace.LogReader, meta RunMeta, step int) error {
	rec, err := ReconstructAt(lr, step)
	if err != nil {
		return err
	}
	live, err := meta.FreshWorld()
	if err != nil {
		return err
	}
	for s := 0; s < step; s++ {
		live.Step()
	}
	if err := snapEqual(rec, live.Snapshot()); err != nil {
		return fmt.Errorf("replay: reconstruction at step %d diverges from fresh simulation: %w", step, err)
	}
	return nil
}

// VerifyLog replays the whole log in lockstep with a fresh simulation of
// the recorded run: every anchor must match the live world's snapshot
// byte for byte, and after every recorded world delta the running
// reconstruction must match the live world bit for bit. One pass over the
// log, one pass over the simulation. Returns the number of steps checked.
func VerifyLog(lr *trace.LogReader, meta RunMeta) (int, error) {
	live, err := meta.FreshWorld()
	if err != nil {
		return 0, err
	}
	stepped := 0
	advance := func(to int) {
		for stepped < to {
			live.Step()
			stepped++
		}
	}
	// cur is the reconstruction; liveSnap is one reused capture of the live
	// world, so a check costs no fresh snapshot per record.
	var cur, liveSnap network.Snapshot
	haveCur := false
	checked := 0
	err = lr.Scan(func(r trace.Record) error {
		switch r.Kind {
		case trace.RecordAnchor:
			advance(r.Step)
			live.SnapshotInto(&liveSnap)
			liveBytes, err := json.Marshal(&liveSnap)
			if err != nil {
				return err
			}
			if string(liveBytes) != string(r.Anchor) {
				return fmt.Errorf("replay: anchor at step %d does not match fresh simulation", r.Step)
			}
			if err := json.Unmarshal(r.Anchor, &cur); err != nil {
				return fmt.Errorf("replay: decoding anchor at step %d: %w", r.Step, err)
			}
			haveCur = true
			checked++
		case trace.RecordDelta:
			advance(r.Delta.Step)
			if !haveCur {
				return nil // deltas before the first anchor are unverifiable
			}
			if err := applyDelta(&cur, r.Delta); err != nil {
				return err
			}
			live.SnapshotInto(&liveSnap)
			if err := snapEqual(cur, liveSnap); err != nil {
				return fmt.Errorf("replay: reconstruction diverges at step %d: %w", r.Delta.Step, err)
			}
			checked++
		}
		return nil
	})
	if err != nil {
		return checked, err
	}
	if checked == 0 {
		return 0, fmt.Errorf("replay: log carries no world stream to verify (recorded without a WorldSink?)")
	}
	return checked, nil
}

// snapEqual compares two snapshots bit for bit (float64 equality is exact
// here: both sides are untransformed IEEE values), reporting the first
// divergence.
func snapEqual(a, b network.Snapshot) error {
	if len(a.Positions) != len(b.Positions) {
		return fmt.Errorf("node count %d != %d", len(a.Positions), len(b.Positions))
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			return fmt.Errorf("node %d position %v != %v", i, a.Positions[i], b.Positions[i])
		}
	}
	if len(a.Ranges) != len(b.Ranges) {
		return fmt.Errorf("range count %d != %d", len(a.Ranges), len(b.Ranges))
	}
	for i := range a.Ranges {
		if a.Ranges[i] != b.Ranges[i] {
			return fmt.Errorf("node %d range %v != %v", i, a.Ranges[i], b.Ranges[i])
		}
	}
	if err := idsEqual("dead", a.Dead, b.Dead); err != nil {
		return err
	}
	if err := idsEqual("down gateway", a.DownGateways, b.DownGateways); err != nil {
		return err
	}
	switch {
	case (a.PartitionX == nil) != (b.PartitionX == nil):
		return fmt.Errorf("partition active %v != %v", a.PartitionX != nil, b.PartitionX != nil)
	case a.PartitionX != nil && *a.PartitionX != *b.PartitionX:
		return fmt.Errorf("partition cut %v != %v", *a.PartitionX, *b.PartitionX)
	}
	return nil
}

func idsEqual(what string, a, b []network.NodeID) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s count %d != %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s list diverges at %d: %d != %d", what, i, a[i], b[i])
		}
	}
	return nil
}

// SummarizeLog builds a Summary from a binary log in one streaming pass —
// events feed the builder as they decode; the full event stream is never
// materialised.
func SummarizeLog(lr *trace.LogReader) (Summary, error) {
	b := NewSummaryBuilder()
	err := lr.Scan(func(r trace.Record) error {
		if r.Kind == trace.RecordEvent {
			b.Add(r.Event)
		}
		return nil
	})
	return b.Summary(), err
}

// ExportJSONL writes the log's event stream to w as JSON Lines — one
// encoding/json object per event, in recorded order — and returns the
// number of events written. World deltas and anchors have no JSONL form
// and are skipped. A decode error (truncated or corrupt log) or a write
// error ends the export and is returned.
func ExportJSONL(lr *trace.LogReader, w io.Writer) (int, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	n := 0
	err := lr.Scan(func(r trace.Record) error {
		if r.Kind != trace.RecordEvent {
			return nil
		}
		if err := enc.Encode(r.Event); err != nil {
			return err
		}
		n++
		return nil
	})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return n, err
}
