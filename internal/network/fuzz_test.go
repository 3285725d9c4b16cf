package network

import (
	"testing"

	"repro/internal/faults"
)

// FuzzIncrementalTopology drives a mixed mobility/decay tape: each tape
// byte configures one node (mover kind, whether its battery decays, decay
// speed, floor), and the trailing bytes pick the seed spread, step count,
// and the maximum radio range (up to most of the arena, so discs cover
// most of the grid at once). The same bytes also script a fault
// schedule — node death and revival (sometimes respawned elsewhere), radio
// degradation and restoration, gateway service flaps, and a partition
// window — interleaved with the mobility churn. For every tape the
// incrementally maintained topology must stay bit-identical to a full
// rebuild after every single step, and both must match an O(n²)
// fault-aware brute-force referee at the end.
func FuzzIncrementalTopology(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 30})
	f.Add(uint64(42), []byte{255, 0, 255, 0, 128, 64, 200})
	f.Add(uint64(9), []byte{7, 7, 7, 7})
	f.Add(uint64(77), []byte{9, 13, 5, 240, 6, 12, 1, 19, 161}) // long-range tape
	// Certificate seeds: fast decaying waypoint movers whose legs change
	// speed and whose radios degrade; deaths and respawns around a
	// partition window; and near-static decaying pairs whose certificates
	// run long.
	f.Add(uint64(2026), []byte{7, 6, 22, 38, 70, 134, 198, 2, 23, 12})
	f.Add(uint64(31), []byte{3, 10, 14, 9, 26, 42, 13, 40, 60, 44})
	f.Add(uint64(5), []byte{0, 4, 4, 5, 68, 132, 4, 196, 70, 44})
	f.Fuzz(func(t *testing.T, seed uint64, tape []byte) {
		if len(tape) < 2 {
			t.Skip()
		}
		steps := 5 + int(tape[len(tape)-1]%45)
		body := tape[:len(tape)-1]
		n := len(body)
		if n > 48 {
			n = 48
		}
		plans := make([]nodePlan, n)
		for i := range plans {
			b := body[i]
			plans[i] = nodePlan{mover: b % 4}
			if b&4 != 0 {
				plans[i].decay = 0.001 + float64(b>>4)*0.002 // up to 0.031/step
				plans[i].floor = float64(b>>6) * 0.25        // 0, .25, .5, .75
			}
		}
		p := planParams{
			arena: 40, minR: 3,
			// Up to 30 on a 40-unit arena: discs can cover most of the grid.
			maxR:     6 + float64(tape[len(tape)-1]%25),
			minSpeed: 0.2, maxSpeed: 1 + float64(tape[0]%8), // up to speeds past the cell size
			pause: int(tape[0] % 5),
		}
		sched := fuzzFaultSchedule(body, n, steps)
		inc := buildPlannedWorld(t, plans, p, seed)
		full := buildPlannedWorld(t, plans, p, seed)
		full.SetFullRebuild(true)
		inc.SetFaults(sched)
		full.SetFaults(sched)
		if !inc.Dynamic() {
			// All-static, never-decaying tape: only the fault events change
			// the topology, and every stepping path degenerates to the same
			// masked rebuild — compare against the referee as faults fire.
			for step := 0; step < steps; step++ {
				inc.Step()
				if diff, ok := sameTopology(inc.Topology(), bruteForceFaultTopology(inc)); !ok {
					t.Fatalf("static step %d: vs brute force: %s", step+1, diff)
				}
			}
			return
		}
		for step := 0; step < steps; step++ {
			inc.Step()
			full.Step()
			if diff, ok := sameTopology(inc.Topology(), full.Topology()); !ok {
				t.Fatalf("step %d: incremental vs full rebuild: %s", step+1, diff)
			}
		}
		if diff, ok := sameTopology(inc.Topology(), bruteForceFaultTopology(inc)); !ok {
			t.Fatalf("final step: incremental vs brute force: %s", diff)
		}
	})
}

// fuzzFaultSchedule scripts a deterministic fault tape from the same body
// bytes that configured the nodes: bit 3 of a node's byte kills it partway
// through the run and revives it later (bit 5 respawns it at a
// tape-derived position instead), bit 4 degrades and later restores its
// radio, the first byte flaps gateway 0's service and may open a partition
// window. Everything lands on tape-derived steps so the fuzzer explores
// fault/mobility interleavings the hand-written scenarios never tried.
func fuzzFaultSchedule(body []byte, n, steps int) *faults.Schedule {
	var evs []faults.Event
	at := func(b byte) int { return 1 + int(b)%steps }
	for i := 0; i < n; i++ {
		b := body[i]
		u := NodeID(i)
		if b&8 != 0 {
			down := at(b)
			up := down + 1 + int(b>>4)
			ev := faults.Event{Step: up, Kind: faults.NodeUp, Node: u}
			if b&32 != 0 {
				ev.Respawn = true
				ev.RX = float64(b) / 255
				ev.RY = float64(b^0xff) / 255
			}
			evs = append(evs,
				faults.Event{Step: down, Kind: faults.NodeDown, Node: u}, ev)
		}
		if b&16 != 0 {
			deg := at(b >> 1)
			evs = append(evs,
				faults.Event{Step: deg, Kind: faults.RadioDegrade, Node: u,
					Factor: 0.2 + float64(b%5)*0.15},
				faults.Event{Step: deg + 2 + int(b%7), Kind: faults.RadioRestore, Node: u})
		}
	}
	head := body[0]
	if head&1 != 0 {
		evs = append(evs,
			faults.Event{Step: at(head), Kind: faults.GatewayDown, Node: 0},
			faults.Event{Step: at(head) + 3, Kind: faults.GatewayUp, Node: 0})
	}
	if head&2 != 0 {
		start := 1 + steps/3
		evs = append(evs,
			faults.Event{Step: start, Kind: faults.PartitionStart,
				Factor: 0.25 + float64(head%3)*0.25},
			faults.Event{Step: start + steps/3, Kind: faults.PartitionEnd})
	}
	return faults.NewSchedule(evs)
}
