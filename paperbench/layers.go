package main

// layerMetrics derives the per-layer metrics of the traced pass from the
// registry attached through Scenario.Metrics (phase timers and counters)
// and the benchmark's own outside timers. Every metric is reported on
// every workload; a layer the workload bypasses reads 0.
//
// Phase times become per-step costs (_us), and each timed phase also
// gets a .share: its time over the traced runs' wall time. A phase timed
// outside a span that itself runs inside another span (log emits during
// the deposit and meet phases) is subtracted from that span, so shares
// are self times and residual_share is what no phase covers.
func layerMetrics(p *probe, traced, plain *pass, setup setupCost, attempted, failed int) map[string]metric {
	snap := p.reg.Snapshot(nil)
	o := p.out
	counter := func(name string) float64 { return float64(snap.Counter(name)) }
	seconds := func(name string) float64 {
		for _, h := range snap.Hists {
			if h.Name == name {
				return h.Sum
			}
		}
		return 0
	}
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}

	routingSteps := counter("routing_steps_total")
	mappingSteps := counter("mapping_steps_total")
	agentSteps := routingSteps + mappingSteps
	worldSteps := counter("world_steps_total")
	routingRuns := counter("routing_runs_total")
	mappingRuns := counter("mapping_runs_total")

	mobility := seconds("world_phase_mobility_seconds")
	decay := seconds("world_phase_radio_decay_seconds")
	topology := seconds("world_phase_topology_rebuild_seconds")
	replayStep := per(o.replayStep.Seconds(), float64(o.replaySteps))
	decide := seconds("routing_phase_decide_seconds") + seconds("mapping_phase_decide_seconds")
	move := seconds("routing_phase_move_seconds") + seconds("mapping_phase_move_seconds")
	meet := seconds("routing_phase_meet_seconds") - o.emitInMeet.Seconds()
	exchange := seconds("mapping_phase_meet_seconds")
	learn := seconds("mapping_phase_learn_seconds")
	mapMeasure := seconds("mapping_phase_measure_seconds")
	deposit := seconds("routing_phase_deposit_seconds") - o.emitInDeposit.Seconds()
	routeMeasure := seconds("routing_phase_measure_seconds")

	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Shares of the traced runs' wall time, by phase.
	wall := traced.wall.Seconds()
	phases := []struct {
		name string
		sec  float64
	}{
		{"network.mobility", mobility},
		{"network.decay", decay},
		{"network.topology", topology},
		// Replay stepping inside the runs is untimed; the outside
		// per-step cost times the steps the runs took estimates it.
		{"network.replay_step", replayStep * worldSteps},
		{"netgen.generate", o.generate.Seconds()},
		{"core.decide", decide},
		{"core.meet", meet},
		{"core.move", move},
		{"knowledge.exchange", exchange},
		{"mapping.learn", learn},
		{"mapping.measure", mapMeasure},
		{"routing.deposit", deposit},
		{"routing.measure", routeMeasure},
		{"trace.emit", o.emit.Seconds()},
		{"replay.decode", o.decode.Seconds()},
		{"replay.verify", o.verify.Seconds()},
	}
	covered := 0.0
	for _, ph := range phases {
		share := per(ph.sec, wall)
		covered += share
		set(ph.name+".share", share, "frac")
	}
	set("residual_share", 1-covered, "frac")

	set("network.step_us", per((mobility+decay+topology)*1e6, worldSteps), "us")
	set("network.mobility_us", per(mobility*1e6, worldSteps), "us")
	set("network.topology_us", per(topology*1e6, worldSteps), "us")
	set("network.links_changed_per_step",
		per(counter("world_links_added_total")+counter("world_links_removed_total"), worldSteps), "count")
	set("network.replay_step_us", replayStep*1e6, "us")
	set("network.record_ms", setup.record.Seconds()*1e3, "ms")

	generate := setup.generate.Seconds()
	if o.generations > 0 {
		generate = o.generate.Seconds() / float64(o.generations)
	}
	set("netgen.generate_ms", generate*1e3, "ms")

	set("core.decide_us", per(decide*1e6, agentSteps), "us")
	set("core.move_us", per(move*1e6, agentSteps), "us")
	set("core.moves_per_step", per(counter("routing_moves_total")+counter("mapping_moves_total"), agentSteps), "count")
	set("core.meet_us", per(meet*1e6, routingSteps), "us")
	set("core.meetings_per_step",
		per(counter("routing_meetings_total")+counter("mapping_meetings_total"), agentSteps), "count")

	set("knowledge.exchange_us", per(exchange*1e6, mappingSteps), "us")
	set("knowledge.records_merged_per_meeting",
		per(counter("mapping_topo_records_merged_total"), counter("mapping_meetings_total")), "count")

	set("mapping.learn_us", per(learn*1e6, mappingSteps), "us")
	set("mapping.measure_us", per(mapMeasure*1e6, mappingSteps), "us")
	set("mapping.steps_per_run", per(mappingSteps, mappingRuns), "count")

	resyncs := counter("routing_measure_resyncs_total")
	set("routing.deposit_us", per(deposit*1e6, routingSteps), "us")
	set("routing.deposits_per_step", per(counter("routing_deposits_total"), routingSteps), "count")
	set("routing.evictions_per_step", per(counter("routing_route_evictions_total"), routingSteps), "count")
	set("routing.adoptions_per_step", per(counter("routing_route_adoptions_total"), routingSteps), "count")
	set("routing.measure_us", per(routeMeasure*1e6, routingSteps), "us")
	set("routing.measure_resyncs_per_run", per(resyncs, routingRuns), "count")
	set("routing.measure_resync_frac", per(resyncs, routingSteps), "frac")

	set("faults.routes_purged_per_run", per(counter("faults_routes_purged_total"), routingRuns), "count")
	set("faults.stranded_per_run", per(counter("faults_stranded_agents_total"), routingRuns), "count")

	set("trace.emit_us_per_step", per(o.emit.Seconds()*1e6, routingSteps), "us")
	set("trace.bytes_per_event", per(float64(o.logBytes), float64(o.events)), "B")
	set("trace.encode_mb_per_s", per(float64(o.logBytes)/1e6, o.emit.Seconds()), "MB/s")

	set("replay.verify_ms", per(o.verify.Seconds()*1e3, float64(o.verifies)), "ms")
	set("replay.decode_mb_per_s", per(float64(o.logBytes)/1e6, o.decode.Seconds()), "MB/s")

	set("metrics.overhead_frac", 1-per(traced.runsPerSecond(), plain.runsPerSecond()), "frac")
	set("failed_frac", per(float64(failed), float64(attempted)), "frac")
	return m
}
