// Package agentmesh is the public API of this repository: a faithful Go
// implementation of "Mobile Software Agents for Wireless Network Mapping
// and Dynamic Routing" (Khazaei, Mišić, Mišić — ICDCS 2010).
//
// It exposes the three layers a downstream user needs:
//
//   - Network synthesis: GenerateNetwork builds wireless worlds — static
//     heterogeneous-range mapping networks or mobile battery-limited
//     MANETs with gateways (MappingNetwork / RoutingNetwork give the
//     paper's canonical 300- and 250-node setups).
//
//   - Scenario runners: RunMapping / RunMappingBatch send a team of
//     mobile agents (random, conscientious, super-conscientious — with
//     optional stigmergic footprints and meeting-time knowledge exchange)
//     to map a network and report finishing times and knowledge curves;
//     RunRouting / RunRoutingBatch have agents (random, oldest-node)
//     maintain per-node gateway routes on a moving network and report
//     connectivity.
//
//   - Experiments: Figure regenerates any of the paper's figures 1–11 or
//     the extension studies, returning the result table, plottable
//     series, and shape checks against the paper's claims.
//
// Everything is deterministic: a (seed, configuration) pair always
// reproduces the same run, bit-for-bit, on 1 worker or many.
package agentmesh

import (
	"io"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/viz"
)

// NodeID identifies a node in a generated network.
type NodeID = network.NodeID

// World is a simulated wireless ad hoc network.
type World = network.World

// NetworkSpec describes a wireless network to synthesise.
type NetworkSpec = netgen.Spec

// Mobility models for NetworkSpec.
const (
	MobilityNone     = netgen.MobilityNone
	MobilityConstant = netgen.MobilityConstant
	MobilityRandom   = netgen.MobilityRandom
	MobilityWaypoint = netgen.MobilityWaypoint
)

// Agent movement policies.
const (
	PolicyRandom             = core.PolicyRandom
	PolicyConscientious      = core.PolicyConscientious
	PolicySuperConscientious = core.PolicySuperConscientious
	PolicyOldestNode         = core.PolicyOldestNode
)

// MappingNetwork returns the paper's canonical mapping network: 300
// stationary nodes, ~2164 directed links, heterogeneous radio ranges,
// strongly connected.
func MappingNetwork(seed uint64) (*World, error) {
	return netgen.Generate(netgen.Mapping300(), seed)
}

// RoutingNetwork returns the paper's canonical MANET: 250 nodes, 12
// stationary long-range gateways, half of the other nodes moving with
// random velocities on draining batteries.
func RoutingNetwork(seed uint64) (*World, error) {
	return netgen.Generate(netgen.Routing250(), seed)
}

// GenerateNetwork synthesises a custom world from spec; the same
// (spec, seed) pair always yields the same world.
func GenerateNetwork(spec NetworkSpec, seed uint64) (*World, error) {
	return netgen.Generate(spec, seed)
}

// DescribeNetwork returns a one-line summary of a world (size, degree
// statistics, connectivity structure).
func DescribeNetwork(w *World) string { return netgen.Describe(w) }

// MappingScenario configures a network-mapping run (population, policy,
// stigmergy, cooperation, epsilon randomness, memory bounds).
type MappingScenario = mapping.Scenario

// MappingResult is one mapping run's outcome.
type MappingResult = mapping.Result

// MappingBatch aggregates many mapping runs of one parameter setting.
type MappingBatch = mapping.Aggregate

// RunMapping performs one mapping run on w with agent placement drawn
// from seed.
func RunMapping(w *World, sc MappingScenario, seed uint64) (MappingResult, error) {
	return mapping.Run(w, sc, seed)
}

// RunMappingBatch performs runs independent mapping runs (the paper uses
// 40), averaging curves and summarising finishing times. worldFor supplies
// the world per run — return the same *World for a static network.
func RunMappingBatch(worldFor func(run int) (*World, error), sc MappingScenario, runs int, seed uint64) (MappingBatch, error) {
	return mapping.RunMany(worldFor, sc, runs, seed)
}

// RunMappingBatchCached is RunMappingBatch with the world's evolution
// recorded once (from a world supplied by build) and replayed for every
// run — bit-identical aggregates at a fraction of the world-step cost.
func RunMappingBatchCached(build func() (*World, error), sc MappingScenario, runs int, seed uint64) (MappingBatch, error) {
	return mapping.RunManyCached(build, sc, runs, seed)
}

// RoutingScenario configures a dynamic-routing run (population, policy,
// communication, stigmergy, history size, run length).
type RoutingScenario = routing.Scenario

// RoutingResult is one routing run's outcome.
type RoutingResult = routing.Result

// RoutingBatch aggregates many routing runs of one parameter setting.
type RoutingBatch = routing.Aggregate

// RoutingTables is the per-node routing state the agents maintain.
type RoutingTables = routing.Tables

// RoutingMeasurement is one step's routing metrics: local (next-hop
// liveness), end-to-end and ideal connectivity, and route staleness. A
// RoutingScenario.Observer receives it every step, and the AntColony and
// DistanceVector baselines return it from Measure.
type RoutingMeasurement = routing.Measurement

// RunRouting performs one routing run on w (the world is consumed — use a
// fresh one per run) with agent placement drawn from seed.
func RunRouting(w *World, sc RoutingScenario, seed uint64) (RoutingResult, error) {
	return routing.Run(w, sc, seed)
}

// RunRoutingBatch performs runs independent routing runs. worldFor must
// build a fresh world per call; regenerate from one seed to follow the
// paper's fixed node placement and movement trace.
func RunRoutingBatch(worldFor func(run int) (*World, error), sc RoutingScenario, runs int, seed uint64) (RoutingBatch, error) {
	return routing.RunMany(worldFor, sc, runs, seed)
}

// RunRoutingBatchCached is RunRoutingBatch with the world's movement
// trace recorded once (from a world supplied by build) and replayed for
// every run — bit-identical aggregates at a fraction of the world-step
// cost.
func RunRoutingBatchCached(build func() (*World, error), sc RoutingScenario, runs int, seed uint64) (RoutingBatch, error) {
	return routing.RunManyCached(build, sc, runs, seed)
}

// MetricsRegistry collects counters, gauges, histograms and phase timers
// from instrumented runs. Attach one via MappingScenario.Metrics or
// RoutingScenario.Metrics; a nil registry disables instrumentation at
// near-zero cost, and instrumentation never perturbs seeded determinism.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a point-in-time copy of a registry's instruments,
// reusable across scrapes to avoid steady-state allocation.
type MetricsSnapshot = metrics.Snapshot

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// ServeMetrics starts an HTTP server on addr exposing the registry at
// /metrics (Prometheus text; ?format=json for JSON), expvar at
// /debug/vars, and net/http/pprof at /debug/pprof/. It returns the bound
// address (useful with ":0") once the listener is up.
func ServeMetrics(addr string, r *MetricsRegistry) (string, error) {
	return metrics.StartServer(addr, r)
}

// WriteMetrics dumps a snapshot of r to path — Prometheus text format, or
// JSON when path ends in ".json".
func WriteMetrics(r *MetricsRegistry, path string) error {
	return metrics.WriteFile(r, path)
}

// ExperimentConfig tunes a figure reproduction (runs per setting, root
// seed, worker count, quick mode).
type ExperimentConfig = experiments.Config

// ExperimentReport is a regenerated figure: table, series, shape checks.
type ExperimentReport = experiments.Report

// Figure regenerates one of the paper's figures ("fig1".."fig11") or
// extension studies ("extA".."extE").
func Figure(id string, cfg ExperimentConfig) (ExperimentReport, error) {
	return experiments.Run(id, cfg)
}

// Figures lists the available experiment IDs in presentation order.
func Figures() []string { return experiments.IDs() }

// TrafficStats accumulates packet-delivery outcomes.
type TrafficStats = traffic.Stats

// TrafficGen injects packets at random nodes and forwards them one hop
// per step over the agents' routing tables. Plug its Step method into
// RoutingScenario.Observer to measure real deliverability alongside the
// connectivity metric; it reads only the tables and ignores the step's
// RoutingMeasurement and reach view.
type TrafficGen = traffic.Gen

// NewTrafficGen returns a generator injecting perStep packets per step
// with the given TTL (<=0 means 64), idle for the first warmup steps, and
// drawing sources from seed.
func NewTrafficGen(perStep, ttl, warmup int, seed uint64) *TrafficGen {
	return traffic.NewGen(perStep, ttl, warmup, rng.New(seed))
}

// FaultSchedule is a deterministic, immutable fault-injection schedule:
// node churn, gateway failure, partitions, and radio degradation fired at
// fixed world steps. Attach one via RoutingScenario.Faults or
// MappingScenario.Faults; one schedule may drive many worlds.
type FaultSchedule = faults.Schedule

// FaultEvent is one scheduled fault occurrence.
type FaultEvent = faults.Event

// FaultPlan is the parameterised generator of fault schedules: churn
// cadence, gateway-failure windows, partitions, and radio degradation,
// expanded into a concrete FaultSchedule by a seed.
type FaultPlan = faults.Plan

// NewFaultSchedule builds an explicit schedule from scripted events
// (stably sorted by step).
func NewFaultSchedule(events []FaultEvent) *FaultSchedule {
	return faults.NewSchedule(events)
}

// FaultPresetNames lists the built-in fault scenario presets ("churn",
// "gwfail", "partition", "degrade", "blackout").
func FaultPresetNames() []string { return faults.PresetNames() }

// FaultPreset expands a named preset for an n-node world with the given
// gateways over a run of the given length, spending all schedule
// randomness from seed.
func FaultPreset(name string, n int, gateways []NodeID, steps int, seed uint64) (*FaultSchedule, error) {
	return faults.Preset(name, n, gateways, steps, seed)
}

// SaveNetwork writes a static snapshot of the world (positions, current
// radio ranges, gateways — and, mid-fault, the dead/downed/partition
// state) as JSON. Snapshots share fixture networks; they do not
// checkpoint mobility or battery state — rebuild dynamic worlds from
// (NetworkSpec, seed) instead.
func SaveNetwork(w *World, out io.Writer) error {
	return network.WriteSnapshot(w, out)
}

// LoadNetwork reads a snapshot written by SaveNetwork and builds the
// static world it describes.
func LoadNetwork(in io.Reader) (*World, error) {
	return network.ReadSnapshot(in)
}

// Sparkline renders a series of [0,1] values as a one-line block-character
// chart, downsampled to at most width cells — handy for printing
// connectivity or knowledge curves in terminal output.
func Sparkline(xs []float64, width int) string {
	return viz.Sparkline(xs, width)
}

// ChartSeries renders named [0,1] series as a multi-row ASCII line chart.
func ChartSeries(names []string, series [][]float64, width, height int) string {
	return viz.Chart(names, series, width, height)
}

// AntColony is an AntHocNet-style pheromone router (the nature-inspired
// comparator from the paper's related work): forward ants explore, a
// backward ant reinforces the trail when a gateway is found, pheromone
// evaporates, packets follow the strongest trail. Call Step once per world
// step and Measure(step) for the same metrics the agents' runs report.
type AntColony = baseline.AntColony

// NewAntColony creates a pheromone-routing colony over w. evaporation is
// the per-step pheromone loss (try 0.02) and ttl caps an ant's walk.
func NewAntColony(w *World, ants int, evaporation float64, ttl int, seed uint64) *AntColony {
	return baseline.NewAntColony(w, ants, evaporation, ttl, rng.New(seed))
}

// DistanceVector is the DSDV-style protocol baseline: every node
// exchanges gateway-distance vectors with its neighbours each step. Call
// Step once per world step and Measure(step) for the same metrics the
// agents' runs report.
type DistanceVector = baseline.DistanceVector

// NewDistanceVector initialises the protocol baseline over w; maxAge is
// the route expiry in steps.
func NewDistanceVector(w *World, maxAge int) *DistanceVector {
	return baseline.NewDistanceVector(w, maxAge)
}

// FloodMapResult reports a flooding-based mapping baseline run.
type FloodMapResult = baseline.FloodResult

// FloodMap runs the synchronous flooding baseline for topology mapping on
// the world's current topology.
func FloodMap(w *World, maxRounds int) FloodMapResult {
	return baseline.FloodMap(w, maxRounds)
}
