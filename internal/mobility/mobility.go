// Package mobility implements the node-movement models of the paper's two
// scenarios: stationary nodes, constant-velocity movers (the Kramer/Minar
// assumption), random-velocity movers (the paper's modification), and
// random-waypoint movers as a more general comparator.
//
// Each node owns a Mover; calling Step advances the node one simulation
// step and returns the new position. All randomness comes from the stream
// handed to the constructor, so movement traces are reproducible and — as
// the paper requires for comparisons — identical across parameter settings
// that share a seed.
package mobility

import (
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Mover advances one node's position per simulation step.
type Mover interface {
	// Step returns the node's next position given its current one.
	Step(p geom.Point) geom.Point
}

// Static is a Mover that never moves. Its zero value is ready to use.
type Static struct{}

// Step returns p unchanged.
func (Static) Step(p geom.Point) geom.Point { return p }

// straightLine moves with a constant velocity vector, bouncing off arena
// walls. It backs both the fixed-velocity and random-velocity models: they
// differ only in how the speed is chosen at construction.
type straightLine struct {
	arena geom.Rect
	vel   geom.Vec
}

func (m *straightLine) Step(p geom.Point) geom.Point {
	np, nv := m.arena.Bounce(p, m.vel)
	m.vel = nv
	return np
}

// NewConstantVelocity returns a Mover with the given speed and a random
// initial heading, bouncing off the arena walls. This is the mobility model
// of Kramer et al. [2]: every mobile node shares one fixed speed.
func NewConstantVelocity(arena geom.Rect, speed float64, s *rng.Stream) Mover {
	return &straightLine{arena: arena, vel: geom.FromAngle(s.Angle()).Scale(speed)}
}

// NewRandomVelocity returns a Mover whose speed is drawn uniformly from
// [minSpeed, maxSpeed) with a random heading — the paper's modification
// ("we assign random velocity to half of the nodes").
func NewRandomVelocity(arena geom.Rect, minSpeed, maxSpeed float64, s *rng.Stream) Mover {
	return &straightLine{
		arena: arena,
		vel:   geom.FromAngle(s.Angle()).Scale(s.Range(minSpeed, maxSpeed)),
	}
}

// Waypoint implements the classic random-waypoint model: pick a uniform
// destination and speed, travel there in a straight line, pause, repeat.
// A positive hop radius restricts each destination to a box around the
// current position (local roaming), which keeps travel legs short so the
// fleet alternates between moving and dwelling like the paper's scenarios.
type Waypoint struct {
	arena              geom.Rect
	hop                float64 // 0 = arena-wide destinations
	minSpeed, maxSpeed float64
	pauseSteps         int
	s                  *rng.Stream

	dest    geom.Point
	speed   float64
	pausing int
	started bool
}

// NewWaypoint returns a random-waypoint Mover. pauseSteps is the dwell time
// at each destination.
func NewWaypoint(arena geom.Rect, minSpeed, maxSpeed float64, pauseSteps int, s *rng.Stream) *Waypoint {
	return &Waypoint{
		arena:      arena,
		minSpeed:   minSpeed,
		maxSpeed:   maxSpeed,
		pauseSteps: pauseSteps,
		s:          s,
	}
}

// NewLocalWaypoint returns a random-waypoint Mover whose destinations stay
// within hop of the current position (clamped to the arena): nodes roam a
// neighbourhood instead of crossing the whole field between pauses.
func NewLocalWaypoint(arena geom.Rect, hop, minSpeed, maxSpeed float64, pauseSteps int, s *rng.Stream) *Waypoint {
	return &Waypoint{
		arena:      arena,
		hop:        hop,
		minSpeed:   minSpeed,
		maxSpeed:   maxSpeed,
		pauseSteps: pauseSteps,
		s:          s,
	}
}

func (m *Waypoint) pickDest(p geom.Point) {
	loX, hiX := m.arena.MinX, m.arena.MaxX
	loY, hiY := m.arena.MinY, m.arena.MaxY
	if m.hop > 0 {
		loX, hiX = math.Max(loX, p.X-m.hop), math.Min(hiX, p.X+m.hop)
		loY, hiY = math.Max(loY, p.Y-m.hop), math.Min(hiY, p.Y+m.hop)
	}
	m.dest = geom.Point{
		X: m.s.Range(loX, hiX),
		Y: m.s.Range(loY, hiY),
	}
	m.speed = m.s.Range(m.minSpeed, m.maxSpeed)
	m.started = true
}

// Step advances toward the current waypoint, pausing on arrival.
func (m *Waypoint) Step(p geom.Point) geom.Point {
	if m.pausing > 0 {
		m.pausing--
		return p
	}
	if !m.started {
		m.pickDest(p)
	}
	to := m.dest.Sub(p)
	d := to.Len()
	if d <= m.speed {
		m.pausing = m.pauseSteps
		m.started = false // pick a fresh destination after the pause
		return m.dest
	}
	return p.Add(to.Unit().Scale(m.speed))
}

// Fleet bundles one Mover per node and steps them together.
type Fleet struct {
	movers []Mover
}

// NewFleet wraps the given movers (indexed by node ID).
func NewFleet(movers []Mover) *Fleet { return &Fleet{movers: movers} }

// Len returns the number of nodes in the fleet.
func (f *Fleet) Len() int { return len(f.movers) }

// Step advances every position in place.
func (f *Fleet) Step(pos []geom.Point) {
	for i, m := range f.movers {
		pos[i] = m.Step(pos[i])
	}
}

// StepOne advances the single node i and returns its new position. Every
// mover owns its node's state and RNG stream exclusively (constructors
// take a per-node stream), so distinct nodes may be stepped in any order
// with results identical to a whole-fleet Step — the contract the
// incremental engine, which steps only mobility-capable nodes, relies on.
func (f *Fleet) StepOne(i int, p geom.Point) geom.Point {
	return f.movers[i].Step(p)
}
