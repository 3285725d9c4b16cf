// Package faults is the deterministic fault-injection engine: a Schedule
// maps simulation steps to fault events — node churn (leave/join), gateway
// failure and timed recovery, a vertical region partition suppressing every
// cross-partition link, and radio degradation (range shrink) with restore.
//
// Schedules are immutable once built, so one Schedule can drive any number
// of concurrent runs; all randomness is spent at BUILD time (from a seeded
// rng stream), never at injection time, so a (plan, seed) pair always
// compiles to the same explicit event script and a faulted run stays
// bit-identical across stepping engines and worker counts. The World
// consumes events at step boundaries (network.World.SetFaults).
package faults

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Kind enumerates the fault event types.
type Kind uint8

const (
	// NodeDown removes a node from the network: it vanishes from the
	// topology, stops moving, and strands any agents occupying it.
	NodeDown Kind = iota + 1
	// NodeUp revives a previously downed node, optionally respawning it
	// at a new position (RX, RY).
	NodeUp
	// GatewayDown takes a gateway out of service: the node stays alive
	// and keeps relaying, but no longer counts as a route target.
	GatewayDown
	// GatewayUp restores a downed gateway to service.
	GatewayUp
	// PartitionStart splits the arena at a vertical cut (Factor = the cut
	// as a fraction of arena width); all links crossing the cut are
	// suppressed until PartitionEnd.
	PartitionStart
	// PartitionEnd heals the active partition.
	PartitionEnd
	// RadioDegrade scales a node's radio range by Factor in [0, 1]
	// (interference/damage, independent of battery charge).
	RadioDegrade
	// RadioRestore removes all degradation from a node's radio.
	RadioRestore
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case NodeDown:
		return "node-down"
	case NodeUp:
		return "node-up"
	case GatewayDown:
		return "gateway-down"
	case GatewayUp:
		return "gateway-up"
	case PartitionStart:
		return "partition-start"
	case PartitionEnd:
		return "partition-end"
	case RadioDegrade:
		return "radio-degrade"
	case RadioRestore:
		return "radio-restore"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one scheduled fault. Step is the world step count at which the
// event fires (the first Step call is step 1). Node targets churn, gateway
// and radio events; Factor carries the partition cut fraction or the radio
// degradation multiplier; RX/RY are a NodeUp respawn position as arena
// fractions in [0, 1], used only when Respawn is set.
type Event struct {
	Step    int
	Kind    Kind
	Node    int32
	Factor  float64
	RX, RY  float64
	Respawn bool
}

// Schedule is an immutable, step-sorted fault script. The zero value and
// nil are both valid empty schedules.
type Schedule struct {
	events []Event
	steps  []int // distinct event steps, ascending
}

// NewSchedule sorts evs by step (stable, so same-step events keep their
// authoring order) and returns the schedule.
func NewSchedule(evs []Event) *Schedule {
	s := &Schedule{events: append([]Event(nil), evs...)}
	sort.SliceStable(s.events, func(i, j int) bool {
		return s.events[i].Step < s.events[j].Step
	})
	for i, e := range s.events {
		if i == 0 || e.Step != s.events[i-1].Step {
			s.steps = append(s.steps, e.Step)
		}
	}
	return s
}

// Len returns the total event count.
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.events)
}

// At returns the events scheduled for exactly the given step, in authoring
// order. The returned slice aliases the schedule; callers must not modify
// it.
func (s *Schedule) At(step int) []Event {
	if s == nil || len(s.events) == 0 {
		return nil
	}
	lo := sort.Search(len(s.events), func(i int) bool { return s.events[i].Step >= step })
	hi := lo
	for hi < len(s.events) && s.events[hi].Step == step {
		hi++
	}
	if lo == hi {
		return nil
	}
	return s.events[lo:hi]
}

// Steps returns the distinct steps at which events fire, ascending. The
// returned slice aliases the schedule; callers must not modify it.
func (s *Schedule) Steps() []int {
	if s == nil {
		return nil
	}
	return s.steps
}

// Events returns all events in step order. The returned slice aliases the
// schedule; callers must not modify it.
func (s *Schedule) Events() []Event {
	if s == nil {
		return nil
	}
	return s.events
}

// Plan is the declarative description a Schedule is compiled from. Zero
// fields disable the corresponding fault family, so plans compose by
// setting only the families wanted. Victim selection and respawn positions
// are drawn from the build seed, making (Plan, n, gateways, steps, seed)
// → Schedule a pure function.
type Plan struct {
	// Node churn: every ChurnEvery steps from ChurnStart on, ChurnKills
	// random non-gateway nodes (not already down) leave, each rejoining
	// ChurnDowntime steps later (<= 0: they never rejoin). ChurnEvery <= 0
	// means a single burst at ChurnStart. RespawnElsewhere revives each
	// node at a fresh uniform position instead of where it died.
	ChurnStart       int
	ChurnEvery       int
	ChurnKills       int
	ChurnDowntime    int
	RespawnElsewhere bool

	// Gateway outage: at GatewayFailStep, GatewayKills random gateways go
	// out of service, recovering GatewayDowntime steps later (<= 0: never).
	GatewayFailStep int
	GatewayKills    int
	GatewayDowntime int

	// Partition: at PartitionStep the arena splits at a vertical cut
	// PartitionFrac (fraction of width; outside (0,1) defaults to 0.5),
	// healing PartitionHeal steps later (<= 0: never).
	PartitionStep int
	PartitionHeal int
	PartitionFrac float64

	// Radio degradation: at DegradeStep, DegradeCount random nodes have
	// their radio range scaled by DegradeFactor (outside (0,1) defaults to
	// 0.5), restored DegradeRestore steps later (<= 0: never).
	DegradeStep    int
	DegradeCount   int
	DegradeRestore int
	DegradeFactor  float64
}

// Build compiles the plan into an explicit Schedule for a network of n
// nodes with the given gateway set over a run of the given step count.
func (p Plan) Build(n int, gateways []int32, steps int, seed uint64) *Schedule {
	root := rng.New(seed).Named("faults.plan")
	isGW := make([]bool, n)
	for _, g := range gateways {
		if g >= 0 && int(g) < n {
			isGW[g] = true
		}
	}
	var evs []Event

	if p.ChurnKills > 0 && p.ChurnStart > 0 && p.ChurnStart < steps {
		cs := root.Named("churn")
		downUntil := make([]int, n) // step at which the node is back up
		for step := p.ChurnStart; step < steps; {
			var cands []int32
			for u := 0; u < n; u++ {
				if !isGW[u] && downUntil[u] <= step {
					cands = append(cands, int32(u))
				}
			}
			for k := 0; k < p.ChurnKills && len(cands) > 0; k++ {
				i := cs.Intn(len(cands))
				u := cands[i]
				cands[i] = cands[len(cands)-1]
				cands = cands[:len(cands)-1]
				evs = append(evs, Event{Step: step, Kind: NodeDown, Node: u})
				if p.ChurnDowntime > 0 {
					up := Event{Step: step + p.ChurnDowntime, Kind: NodeUp, Node: u}
					if p.RespawnElsewhere {
						up.Respawn = true
						up.RX, up.RY = cs.Float64(), cs.Float64()
					}
					evs = append(evs, up)
					downUntil[u] = step + p.ChurnDowntime
				} else {
					downUntil[u] = steps + 1
				}
			}
			if p.ChurnEvery <= 0 {
				break
			}
			step += p.ChurnEvery
		}
	}

	if p.GatewayKills > 0 && p.GatewayFailStep > 0 && len(gateways) > 0 {
		gs := root.Named("gateways")
		cands := append([]int32(nil), gateways...)
		for k := 0; k < p.GatewayKills && len(cands) > 0; k++ {
			i := gs.Intn(len(cands))
			g := cands[i]
			cands[i] = cands[len(cands)-1]
			cands = cands[:len(cands)-1]
			evs = append(evs, Event{Step: p.GatewayFailStep, Kind: GatewayDown, Node: g})
			if p.GatewayDowntime > 0 {
				evs = append(evs, Event{
					Step: p.GatewayFailStep + p.GatewayDowntime, Kind: GatewayUp, Node: g,
				})
			}
		}
	}

	if p.PartitionStep > 0 {
		frac := p.PartitionFrac
		if frac <= 0 || frac >= 1 {
			frac = 0.5
		}
		evs = append(evs, Event{Step: p.PartitionStep, Kind: PartitionStart, Factor: frac})
		if p.PartitionHeal > 0 {
			evs = append(evs, Event{Step: p.PartitionStep + p.PartitionHeal, Kind: PartitionEnd})
		}
	}

	if p.DegradeCount > 0 && p.DegradeStep > 0 {
		ds := root.Named("degrade")
		factor := p.DegradeFactor
		if factor <= 0 || factor >= 1 {
			factor = 0.5
		}
		cands := make([]int32, n)
		for u := range cands {
			cands[u] = int32(u)
		}
		for k := 0; k < p.DegradeCount && len(cands) > 0; k++ {
			i := ds.Intn(len(cands))
			u := cands[i]
			cands[i] = cands[len(cands)-1]
			cands = cands[:len(cands)-1]
			evs = append(evs, Event{Step: p.DegradeStep, Kind: RadioDegrade, Node: u, Factor: factor})
			if p.DegradeRestore > 0 {
				evs = append(evs, Event{Step: p.DegradeStep + p.DegradeRestore, Kind: RadioRestore, Node: u})
			}
		}
	}

	return NewSchedule(evs)
}

// PresetNames lists the named fault scenarios Preset accepts, in
// presentation order.
func PresetNames() []string {
	return []string{"churn", "gwfail", "partition", "degrade", "blackout"}
}

// PresetPlan returns the Plan behind a named scenario, scaled to a network
// of n nodes with the given gateway count over a run of the given steps:
//
//	churn      periodic node leave/join with respawn elsewhere
//	gwfail     a third of the gateways fail mid-run, recovering later
//	partition  a vertical split severs the arena for a quarter of the run
//	degrade    a fifth of the radios lose half their range, then recover
//	blackout   churn + gateway failure + partition combined
func PresetPlan(name string, n, gateways, steps int) (Plan, error) {
	churn := Plan{
		ChurnStart:       steps / 5,
		ChurnEvery:       max(1, steps/10),
		ChurnKills:       max(1, n/25),
		ChurnDowntime:    max(1, steps/6),
		RespawnElsewhere: true,
	}
	gwfail := Plan{
		GatewayFailStep: steps / 3,
		GatewayKills:    max(1, gateways/3),
		GatewayDowntime: max(1, steps/4),
	}
	partition := Plan{
		PartitionStep: steps / 3,
		PartitionHeal: max(1, steps/4),
		PartitionFrac: 0.5,
	}
	switch name {
	case "churn":
		return churn, nil
	case "gwfail":
		return gwfail, nil
	case "partition":
		return partition, nil
	case "degrade":
		return Plan{
			DegradeStep:    steps / 4,
			DegradeCount:   max(1, n/5),
			DegradeRestore: max(1, steps/4),
			DegradeFactor:  0.5,
		}, nil
	case "blackout":
		p := churn
		p.GatewayFailStep = gwfail.GatewayFailStep
		p.GatewayKills = gwfail.GatewayKills
		p.GatewayDowntime = gwfail.GatewayDowntime
		p.PartitionStep = partition.PartitionStep
		p.PartitionHeal = partition.PartitionHeal
		p.PartitionFrac = partition.PartitionFrac
		return p, nil
	default:
		return Plan{}, fmt.Errorf("faults: unknown preset %q (have %v)", name, PresetNames())
	}
}

// Preset compiles a named scenario (see PresetPlan) into a Schedule.
func Preset(name string, n int, gateways []int32, steps int, seed uint64) (*Schedule, error) {
	p, err := PresetPlan(name, n, len(gateways), steps)
	if err != nil {
		return nil, err
	}
	return p.Build(n, gateways, steps, seed), nil
}
