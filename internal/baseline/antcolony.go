package baseline

import (
	"repro/internal/network"
	"repro/internal/rng"
	"repro/internal/routing"
)

// AntColony is a simplified AntHocNet-style router (Di Caro, Ducatelle,
// Gambardella [9]; Amin & Mikler [11] — both discussed in the paper's
// related work): forward ants wander from random nodes biased by
// pheromone; when one reaches a gateway a backward ant retraces the path,
// depositing pheromone on each node's choice of next hop toward that
// gateway; pheromone evaporates every step; data packets follow the
// strongest trail. It is the nature-inspired comparator for the paper's
// deliberate (history-driven) agents.
type AntColony struct {
	w           *network.World
	evaporation float64
	deposit     float64
	ttl         int
	stream      *rng.Stream

	// pher[u][v] is the pheromone on choosing v as u's next hop; gwHint
	// remembers which gateway that trail led to.
	pher   []map[network.NodeID]float64
	gwHint []map[network.NodeID]network.NodeID
	ants   []ant

	// tables holds the strongest trails as routing entries, rewritten in
	// place by Tables and Measure; meter measures them.
	tables *routing.Tables
	meter  *routing.Meter

	// Messages counts ant hops (forward and backward), the protocol's
	// traffic unit.
	Messages int
}

type ant struct {
	at   network.NodeID
	path []network.NodeID
}

// NewAntColony creates a colony of the given size. evaporation is the
// per-step pheromone retention loss (e.g. 0.02); ttl caps a forward
// ant's path before it is respawned.
func NewAntColony(w *network.World, ants int, evaporation float64, ttl int, stream *rng.Stream) *AntColony {
	if ttl <= 0 {
		ttl = 64
	}
	c := &AntColony{
		w:           w,
		evaporation: evaporation,
		deposit:     1,
		ttl:         ttl,
		stream:      stream,
		pher:        make([]map[network.NodeID]float64, w.N()),
		gwHint:      make([]map[network.NodeID]network.NodeID, w.N()),
		ants:        make([]ant, ants),
		tables:      routing.NewTables(w.N(), 1),
	}
	c.meter = routing.NewMeter(w, c.tables)
	for i := range c.pher {
		c.pher[i] = make(map[network.NodeID]float64)
		c.gwHint[i] = make(map[network.NodeID]network.NodeID)
	}
	for i := range c.ants {
		c.ants[i] = c.spawn()
	}
	return c
}

// spawn places a fresh forward ant on a random node.
func (c *AntColony) spawn() ant {
	start := network.NodeID(c.stream.Intn(c.w.N()))
	return ant{at: start, path: []network.NodeID{start}}
}

// Step advances every ant one hop and evaporates pheromone. Call once per
// world step, before the world moves.
func (c *AntColony) Step() {
	for i := range c.ants {
		c.stepAnt(&c.ants[i])
	}
	// Evaporation; fully dried-out trails are deleted so tables shrink.
	for u := range c.pher {
		for v, tau := range c.pher[u] {
			tau *= 1 - c.evaporation
			if tau < 1e-4 {
				delete(c.pher[u], v)
				delete(c.gwHint[u], v)
			} else {
				c.pher[u][v] = tau
			}
		}
	}
}

// stepAnt moves one forward ant, retracing as a backward ant when it
// finds a gateway.
func (c *AntColony) stepAnt(a *ant) {
	nbrs := c.w.Neighbors(a.at)
	if len(nbrs) == 0 || len(a.path) >= c.ttl {
		*a = c.spawn()
		return
	}
	next := c.pick(a.at, nbrs)
	c.Messages++
	// Loop compaction keeps deposited trails cycle-free.
	trimmed := false
	for i, u := range a.path {
		if u == next {
			a.path = a.path[:i+1]
			trimmed = true
			break
		}
	}
	if !trimmed {
		a.path = append(a.path, next)
	}
	a.at = next
	if c.w.IsGateway(next) {
		c.retrace(a.path, next)
		*a = c.spawn()
	}
}

// pick chooses the next hop proportionally to pheromone (plus a floor so
// unexplored links keep being sampled).
func (c *AntColony) pick(u network.NodeID, nbrs []network.NodeID) network.NodeID {
	const floor = 0.05
	total := 0.0
	for _, v := range nbrs {
		total += c.pher[u][v] + floor
	}
	r := c.stream.Float64() * total
	for _, v := range nbrs {
		r -= c.pher[u][v] + floor
		if r <= 0 {
			return v
		}
	}
	return nbrs[len(nbrs)-1]
}

// retrace runs the backward ant: walk the found path from the gateway end
// back, depositing pheromone on each node's forward choice. The deposit
// scales with trail quality (shorter path to the gateway ⇒ more
// pheromone), as in AntHocNet.
func (c *AntColony) retrace(path []network.NodeID, gw network.NodeID) {
	for i := 0; i < len(path)-1; i++ {
		u, v := path[i], path[i+1]
		hopsToGW := len(path) - 1 - i
		c.pher[u][v] += c.deposit / float64(hopsToGW)
		c.gwHint[u][v] = gw
		c.Messages++
	}
}

// Tables exports the colony's strongest trails as routing tables so the
// same connectivity metrics apply to ants and agents alike. Each non-gateway
// node holds its highest-pheromone next hop, stamped with step. The tables
// are the colony's own, rewritten in place by the next Tables or Measure.
func (c *AntColony) Tables(step int) *routing.Tables {
	for u := range c.pher {
		var row [1]routing.Entry
		want := row[:0]
		if best, ok := c.strongest(network.NodeID(u)); ok {
			want = append(want, routing.Entry{
				Gateway: c.gwHint[u][best],
				NextHop: best,
				Hops:    1, // pheromone does not encode distance; hops are nominal
				Updated: step,
			})
		}
		setRow(c.tables, network.NodeID(u), want)
	}
	return c.tables
}

// strongest returns non-gateway node u's highest-pheromone next hop (ties
// to the lower node ID); ok is false for a gateway or a node without
// pheromone.
func (c *AntColony) strongest(u network.NodeID) (network.NodeID, bool) {
	if c.w.IsGateway(u) {
		return 0, false
	}
	best := network.NodeID(-1)
	bestTau := 0.0
	for v, tau := range c.pher[u] {
		if tau > bestTau || (tau == bestTau && best >= 0 && v < best) {
			best, bestTau = v, tau
		}
	}
	return best, best >= 0
}

// Measure exports the colony's tables at step and measures them with the
// routing harness's Meter: local (next-hop liveness), end-to-end and ideal
// connectivity, and staleness. Measuring once per world step keeps the
// meter incremental; after skipped steps it recomputes.
func (c *AntColony) Measure(step int) routing.Measurement {
	c.Tables(step)
	return c.meter.Measure(step)
}
