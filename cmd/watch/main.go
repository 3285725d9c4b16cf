// Command watch renders a routing run as animated terminal frames: the
// arena as a heat map of which nodes currently hold a live gateway route
// (gateways drawn as G), with the connectivity sparkline underneath. It
// is the closest thing this reproduction has to the paper's Java
// "graphical view".
//
//	go run ./cmd/watch                       # defaults: 100 oldest-node agents
//	go run ./cmd/watch -communicate          # watch the Fig 11 chasing collapse
//	go run ./cmd/watch -communicate -stigmergy
//	go run ./cmd/watch -faults blackout      # watch churn + gateway failures + a partition
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/viz"
)

func main() {
	var (
		agents      = flag.Int("agents", 100, "agent population")
		policy      = flag.String("policy", "oldest", "random | oldest")
		communicate = flag.Bool("communicate", false, "exchange best route in meetings")
		stigmergy   = flag.Bool("stigmergy", false, "use footprints")
		steps       = flag.Int("steps", 300, "steps to simulate")
		every       = flag.Int("every", 10, "render a frame every N steps")
		delay       = flag.Duration("delay", 120*time.Millisecond, "pause between frames")
		seed        = flag.Uint64("seed", 1, "world + placement seed")
		cols        = flag.Int("cols", 72, "heat map columns")
		rows        = flag.Int("rows", 24, "heat map rows")
		httpAddr    = flag.String("http", "", "serve /metrics, expvar and pprof on this address (e.g. :6060) while running")
		faultPreset = flag.String("faults", "", "fault preset to inject (churn|gwfail|partition|degrade|blackout)")
	)
	flag.Parse()

	kind := core.PolicyOldestNode
	if *policy == "random" {
		kind = core.PolicyRandom
	}
	w, err := netgen.Generate(netgen.Routing250(), *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "watch:", err)
		os.Exit(1)
	}

	reg := metrics.NewRegistry()
	if *httpAddr != "" {
		addr, err := metrics.StartServer(*httpAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "watch:", err)
			os.Exit(1)
		}
		fmt.Printf("serving metrics/expvar/pprof on http://%s\n", addr)
	}

	var sched *faults.Schedule
	if *faultPreset != "" {
		sched, err = faults.Preset(*faultPreset, w.N(), w.Gateways(), *steps, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "watch:", err)
			os.Exit(2)
		}
	}

	var series []float64
	var snap metrics.Snapshot
	sc := routing.Scenario{
		Agents:      *agents,
		Kind:        kind,
		Communicate: *communicate,
		Stigmergy:   *stigmergy,
		Steps:       *steps,
		Faults:      sched,
		Metrics:     reg,
		Observer: func(step int, w *network.World, tables *routing.Tables, mm routing.Measurement, reached func(network.NodeID) bool) {
			series = append(series, mm.Local)
			if step%*every != 0 {
				return
			}
			values := make([]float64, w.N())
			for u := range values {
				if reached(network.NodeID(u)) {
					values[u] = 1
				} else if len(tables.Entries(network.NodeID(u))) > 0 {
					values[u] = 0.4 // has a route, but it no longer reaches
				}
			}
			fmt.Print("\033[H\033[2J") // clear screen, home cursor
			fmt.Printf("step %3d  agents=%d policy=%s comm=%v stig=%v   (@ = gateway-reaching, - = stale route, G = gateway)\n",
				step, *agents, kind, *communicate, *stigmergy)
			fmt.Print(viz.Heatmap(w, values, *cols, *rows))
			fmt.Printf("connectivity %.3f\n%s\n", series[len(series)-1], viz.Sparkline(series, *cols))
			reg.Snapshot(&snap)
			fmt.Printf("metrics: moves=%d meetings=%d deposits=%d adoptions=%d evictions=%d links+%d/-%d\n",
				snap.Counter("routing_moves_total"), snap.Counter("routing_meetings_total"),
				snap.Counter("routing_deposits_total"), snap.Counter("routing_route_adoptions_total"),
				snap.Counter("routing_route_evictions_total"),
				snap.Counter("world_links_added_total"), snap.Counter("world_links_removed_total"))
			if sched != nil {
				part := ""
				if _, active := w.Partition(); active {
					part = "  PARTITION ACTIVE"
				}
				fmt.Printf("faults:  injected=%d recovered=%d nodes_down=%.0f stranded=%d purged=%d%s\n",
					snap.Counter("faults_injected_total"), snap.Counter("faults_recovered_total"),
					snap.Gauge("faults_nodes_down"), snap.Counter("faults_stranded_agents_total"),
					snap.Counter("faults_routes_purged_total"), part)
			}
			time.Sleep(*delay)
		},
	}
	if _, err := routing.Run(w, sc, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "watch:", err)
		os.Exit(1)
	}
	fmt.Println("done")
}
