package network

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/geom"
)

// This file wires the deterministic fault-injection engine (internal/faults)
// into the World. Faults mutate world state only at step boundaries, through
// an explicit, pre-compiled schedule:
//
//   - NodeDown/NodeUp maintain an alive mask. Dead nodes vanish from the
//     topology (they are omitted from the spatial grid, contribute no
//     out-links, and — being invisible to every scan — receive none), stop
//     moving (their movers are skipped identically on all stepping paths,
//     so per-node RNG streams pause in lockstep), and keep draining their
//     batteries. NodeUp revives a node where it froze, or respawns it at a
//     scheduled position.
//   - GatewayDown/GatewayUp maintain a service mask over the gateway set:
//     a downed gateway keeps relaying as an ordinary node but disappears
//     from Gateways()/IsGateway, so routes to it stop counting.
//   - PartitionStart/PartitionEnd suppress every link crossing a vertical
//     cut through the arena.
//   - RadioDegrade/RadioRestore scale a node's radio range (independent of
//     battery charge; degradation only ever shrinks range, so the grid cell
//     side stays valid).
//
// Determinism contract: every step on which an event fires — and every step
// while a partition is active on a dynamic world — is executed through the
// mask-aware full-rebuild path, and the incremental engine's caches are
// marked stale so its first post-fault step resynchronises from the world
// (node records, candidate lists, certificates, decay cursors). Between
// fault steps the incremental invariants hold unchanged: dead nodes are
// frozen, invisible to candidate scans, and link-free, so the incremental
// engine remains bit-identical to the full rebuild at every step, which
// the fault equivalence and fuzz tests pin.
type faultState struct {
	sched      *faults.Schedule
	dead       []bool
	aliveCount int
	gwDown     []bool
	activeGW   []NodeID // gateways alive and in service
	partActive bool
	partX      float64 // absolute x of the active vertical cut
	epoch      int
	lastEvents []faults.Event

	// Cumulative event-effect counts, mirroring the faults_injected_total /
	// faults_recovered_total instruments but always on: the trajectory
	// recorder reads them so replay maintains identical counters even when
	// the recording world had no registry attached.
	injectedTotal, recoveredTotal uint64
}

// SetFaults attaches a fault schedule to the world; a nil or empty
// schedule attaches nothing. On a world with no fault state the masks
// start clean; on a world restored from a faulted snapshot the restored
// masks are preserved, so re-attaching the original schedule resumes the
// faulted run exactly where the snapshot was taken. Schedules are
// immutable, so one schedule may drive many worlds concurrently.
func (w *World) SetFaults(s *faults.Schedule) {
	if s.Len() == 0 {
		return
	}
	if w.flt == nil {
		w.initFaultState()
	}
	w.flt.sched = s
}

func (w *World) initFaultState() {
	n := w.N()
	w.flt = &faultState{
		dead:       make([]bool, n),
		gwDown:     make([]bool, n),
		aliveCount: n,
		activeGW:   append([]NodeID(nil), w.gateways...),
	}
}

// Alive reports whether node u is currently alive. Worlds without fault
// injection report every node alive.
func (w *World) Alive(u NodeID) bool {
	return w.flt == nil || !w.flt.dead[u]
}

// AliveCount returns the number of currently alive nodes.
func (w *World) AliveCount() int {
	if w.flt == nil {
		return w.N()
	}
	return w.flt.aliveCount
}

// FaultEpoch counts the fault applications so far: it increments once per
// step on which at least one fault event fired. Harnesses watch it to react
// to fault transitions (purge routing entries, handle stranded agents)
// without rescanning state every step. Always 0 without fault injection.
func (w *World) FaultEpoch() int {
	if w.flt == nil {
		return 0
	}
	return w.flt.epoch
}

// LastFaultEvents returns the events applied at the most recent fault
// epoch (aliasing the schedule; callers must not modify).
func (w *World) LastFaultEvents() []faults.Event {
	if w.flt == nil {
		return nil
	}
	return w.flt.lastEvents
}

// Partition returns the active partition's vertical cut (absolute x) and
// whether one is active.
func (w *World) Partition() (cutX float64, active bool) {
	if w.flt == nil || !w.flt.partActive {
		return 0, false
	}
	return w.flt.partX, true
}

// applyFaults executes one step's fault events against the world state.
// The caller (Step) follows with a mask-aware full rebuild.
func (w *World) applyFaults(evs []faults.Event) {
	f := w.flt
	n := w.N()
	var injected, recovered uint64
	for _, e := range evs {
		u := int(e.Node)
		switch e.Kind {
		case faults.NodeDown:
			if u < 0 || u >= n || f.dead[u] {
				continue
			}
			f.dead[u] = true
			f.aliveCount--
			injected++
		case faults.NodeUp:
			if u < 0 || u >= n || !f.dead[u] {
				continue
			}
			f.dead[u] = false
			f.aliveCount++
			if e.Respawn {
				w.pos[u] = geom.Point{
					X: w.arena.MinX + e.RX*w.arena.Width(),
					Y: w.arena.MinY + e.RY*w.arena.Height(),
				}
			}
			recovered++
		case faults.GatewayDown:
			if u < 0 || u >= n || !w.isGateway[u] || f.gwDown[u] {
				continue
			}
			f.gwDown[u] = true
			injected++
		case faults.GatewayUp:
			if u < 0 || u >= n || !w.isGateway[u] || !f.gwDown[u] {
				continue
			}
			f.gwDown[u] = false
			recovered++
		case faults.PartitionStart:
			if f.partActive {
				continue
			}
			f.partActive = true
			f.partX = w.arena.MinX + e.Factor*w.arena.Width()
			injected++
		case faults.PartitionEnd:
			if !f.partActive {
				continue
			}
			f.partActive = false
			recovered++
		case faults.RadioDegrade:
			if u < 0 || u >= n {
				continue
			}
			w.radios[u].Degrade(e.Factor)
			injected++
		case faults.RadioRestore:
			if u < 0 || u >= n || !w.radios[u].Degraded() {
				continue
			}
			w.radios[u].Restore()
			recovered++
		}
	}
	w.refreshActiveGateways()
	f.epoch++
	f.lastEvents = evs
	f.injectedTotal += injected
	f.recoveredTotal += recovered
	w.m.faultsInjected.Add(injected)
	w.m.faultsRecovered.Add(recovered)
	w.m.faultsNodesDown.Set(float64(n - f.aliveCount))
}

// refreshActiveGateways re-derives the in-service gateway list from the
// alive and service masks, preserving the configured gateway order.
func (w *World) refreshActiveGateways() {
	f := w.flt
	f.activeGW = f.activeGW[:0]
	for _, g := range w.gateways {
		if !f.dead[g] && !f.gwDown[g] {
			f.activeGW = append(f.activeGW, g)
		}
	}
}

// setFaultMasks installs absolute fault state, replacing the current
// masks: the dead nodes, the out-of-service gateways and the partition
// cut. IDs are range-checked, because snapshots are outside input. Snapshot
// restore and trajectory replay both install fault state through it; the
// topology is left to the caller.
func (w *World) setFaultMasks(dead, downGateways []NodeID, partActive bool, partX float64) error {
	n := w.N()
	if w.flt == nil {
		w.initFaultState()
	}
	f := w.flt
	clear(f.dead)
	clear(f.gwDown)
	f.aliveCount = n
	for _, u := range dead {
		if u < 0 || int(u) >= n {
			return fmt.Errorf("dead node %d out of range [0,%d)", u, n)
		}
		if !f.dead[u] {
			f.dead[u] = true
			f.aliveCount--
		}
	}
	for _, g := range downGateways {
		if g < 0 || int(g) >= n || !w.isGateway[g] {
			return fmt.Errorf("down gateway %d is not a gateway", g)
		}
		f.gwDown[g] = true
	}
	f.partActive, f.partX = partActive, partX
	w.refreshActiveGateways()
	return nil
}

// appendFaultMasks appends the world's dead nodes and out-of-service
// gateways, in ascending order, to dead and down — the list form of the
// masks that snapshots and world deltas record. Worlds without fault
// injection append nothing.
func (w *World) appendFaultMasks(dead, down []NodeID) ([]NodeID, []NodeID) {
	f := w.flt
	if f == nil {
		return dead, down
	}
	for u := range f.dead {
		if f.dead[u] {
			dead = append(dead, NodeID(u))
		}
		if f.gwDown[u] {
			down = append(down, NodeID(u))
		}
	}
	return dead, down
}
