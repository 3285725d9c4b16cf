package routing

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/trace"
)

// testFaultSchedule builds the acceptance workload — node churn plus a
// gateway-failure window plus a partition — against the shared testSpec
// world geometry.
func testFaultSchedule(t *testing.T, steps int) *faults.Schedule {
	t.Helper()
	w, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Preset("blackout", w.N(), w.Gateways(), steps, 4242)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Len() == 0 {
		t.Fatal("acceptance schedule is empty")
	}
	return sched
}

// TestFaultedRunEquivalenceAcrossWorkers is the PR's acceptance gate: a
// churn + gateway-failure + partition scenario must produce bit-identical
// aggregates at every RunWorkers setting in {1, 2, 4}.
func TestFaultedRunEquivalenceAcrossWorkers(t *testing.T) {
	const steps, runs = 120, 3
	sched := testFaultSchedule(t, steps)
	base := Scenario{
		Agents: 30, Communicate: true, Steps: steps, MeasureFrom: 40,
		Faults: sched,
	}
	var baseline Aggregate
	for _, rw := range []int{1, 2, 4} {
		sc := base
		sc.RunWorkers = rw
		agg, err := RunMany(freshWorld(11), sc, runs, 99)
		if err != nil {
			t.Fatalf("runworkers=%d: %v", rw, err)
		}
		if rw == 1 {
			baseline = agg
			if agg.Stranded == 0 {
				t.Fatal("churn stranded no agents — workload too tame to gate on")
			}
			if agg.Recovered+agg.Censored == 0 {
				t.Fatal("no recovery events measured")
			}
			continue
		}
		if !reflect.DeepEqual(agg, baseline) {
			t.Errorf("runworkers=%d: aggregate diverges from sequential baseline", rw)
		}
	}
}

// TestFaultedRunEquivalenceAcrossEngines checks the same faulted scenario
// is bit-identical whether the world steps through the incremental engine
// or the per-step full rebuild.
func TestFaultedRunEquivalenceAcrossEngines(t *testing.T) {
	const steps = 100
	sched := testFaultSchedule(t, steps)
	sc := Scenario{Agents: 25, Communicate: true, Steps: steps, Faults: sched}
	wInc, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	wFull, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	wFull.SetFullRebuild(true)
	rInc, err := Run(wInc, sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	rFull, err := Run(wFull, sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rInc, rFull) {
		t.Error("faulted results diverge between incremental and full-rebuild stepping")
	}
}

// TestStrandedPolicies pins the two stranded-agent fates: both policies
// see the same stranded count (same schedule, same world), respawn keeps
// the population intact while kill shrinks the move budget.
func TestStrandedPolicies(t *testing.T) {
	const steps = 120
	sched := testFaultSchedule(t, steps)
	base := Scenario{Agents: 30, Communicate: true, Steps: steps, Faults: sched}

	w1, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	respawn := base
	respawn.StrandedPolicy = StrandedRespawn
	resR, err := Run(w1, respawn, 7)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	kill := base
	kill.StrandedPolicy = StrandedKill
	resK, err := Run(w2, kill, 7)
	if err != nil {
		t.Fatal(err)
	}
	if resR.Stranded == 0 {
		t.Fatal("no agent was ever stranded — churn workload too tame")
	}
	// The first stranding happens before policies diverge, so both runs
	// must observe at least one; after that the populations differ.
	if resK.Stranded == 0 {
		t.Error("kill policy observed no strandings")
	}
	if resK.Overhead.Moves >= resR.Overhead.Moves {
		t.Errorf("killing agents should cost fewer moves: kill=%d respawn=%d",
			resK.Overhead.Moves, resR.Overhead.Moves)
	}
}

// TestRecoveryAndStalenessPopulated checks the graceful-degradation
// measures come out of a faulted run: per-event recovery stats with sane
// floors, and a staleness series covering every step.
func TestRecoveryAndStalenessPopulated(t *testing.T) {
	const steps = 120
	sched := testFaultSchedule(t, steps)
	sc := Scenario{Agents: 30, Communicate: true, Steps: steps, MeasureFrom: 40, Faults: sched}
	w, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Staleness) != steps {
		t.Fatalf("staleness series has %d points, want %d", len(res.Staleness), steps)
	}
	if math.IsNaN(res.MeanStaleness) {
		t.Error("MeanStaleness is NaN")
	}
	if len(res.Recovery.Events) == 0 {
		t.Fatal("no recovery events measured")
	}
	for i, ev := range res.Recovery.Events {
		if ev.Floor < 0 || ev.Floor > 1 {
			t.Errorf("event %d: floor %v outside [0,1]", i, ev.Floor)
		}
		// A fault can *raise* connectivity (killing an unconnected node
		// shrinks the denominator), so the floor may sit above the
		// baseline for instantly-recovered events — but a censored event
		// by definition never climbed back within tolerance.
		if !ev.Recovered && ev.Floor >= ev.Baseline-recoveryTol {
			t.Errorf("event %d: censored but floor %v within tolerance of baseline %v",
				i, ev.Floor, ev.Baseline)
		}
		if ev.Recovered && ev.Steps < 0 {
			t.Errorf("event %d: negative reconvergence time %d", i, ev.Steps)
		}
	}
	if res.Recovery.Recovered+res.Recovery.Censored != len(res.Recovery.Events) {
		t.Error("recovered + censored does not partition the events")
	}
	if math.IsNaN(res.Recovery.Floor) || res.Recovery.Floor < 0 || res.Recovery.Floor > 1 {
		t.Errorf("global floor %v outside [0,1]", res.Recovery.Floor)
	}
}

// TestFaultInstrumentationDoesNotPerturb pins the no-perturbation
// contract for the faults_* counters: attaching a registry to a faulted
// run changes nothing in the seeded result, and the stranded counter
// agrees with the result's count.
func TestFaultInstrumentationDoesNotPerturb(t *testing.T) {
	const steps = 100
	sched := testFaultSchedule(t, steps)
	sc := Scenario{Agents: 25, Communicate: true, Steps: steps, Faults: sched}
	wPlain, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(wPlain, sc, 9)
	if err != nil {
		t.Fatal(err)
	}
	wInst, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	sc.Metrics = reg
	inst, err := Run(wInst, sc, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, inst) {
		t.Error("attaching metrics perturbed the faulted run")
	}
	if got := reg.Counter("faults_stranded_agents_total").Value(); got != uint64(inst.Stranded) {
		t.Errorf("faults_stranded_agents_total = %d, want %d", got, inst.Stranded)
	}
	if reg.Counter("faults_injected_total").Value() == 0 {
		t.Error("faults_injected_total never incremented")
	}
	if reg.Counter("faults_routes_purged_total").Value() == 0 {
		t.Error("faults_routes_purged_total never incremented — table purge untested")
	}
}

// TestFaultTraceEvents checks each fault epoch emits exactly one
// trace.KindFault event.
func TestFaultTraceEvents(t *testing.T) {
	const steps = 100
	sched := testFaultSchedule(t, steps)
	counter := trace.NewCounter()
	sc := Scenario{Agents: 20, Steps: steps, Faults: sched, Tracer: counter}
	w, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w, sc, 13); err != nil {
		t.Fatal(err)
	}
	epochs := w.FaultEpoch()
	if epochs == 0 {
		t.Fatal("no fault epochs fired")
	}
	// Epochs fired on the final world step have no following harness step
	// to react in, so the trace may miss at most the last one.
	if got := counter.Count(trace.KindFault); got != epochs && got != epochs-1 {
		t.Errorf("fault trace events = %d, want %d (or %d)", got, epochs, epochs-1)
	}
}

// TestFaultsDetachedLeavesNoResidue runs a faulted run, then a clean run
// on a fresh world with the same seed, and checks the clean run matches a
// never-faulted baseline — no state leaks through the shared schedule or
// pooled run state.
func TestFaultsDetachedLeavesNoResidue(t *testing.T) {
	sched := testFaultSchedule(t, 80)
	scF := Scenario{Agents: 20, Steps: 80, Faults: sched}
	scC := Scenario{Agents: 20, Steps: 80}
	w1, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w1, scF, 3); err != nil {
		t.Fatal(err)
	}
	w2, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	clean1, err := Run(w2, scC, 3)
	if err != nil {
		t.Fatal(err)
	}
	w3, err := netgen.Generate(testSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	clean2, err := Run(w3, scC, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean1, clean2) {
		t.Error("faulted run left residue that changed a later clean run")
	}
}
