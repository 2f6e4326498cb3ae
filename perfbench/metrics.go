package main

// metricDef names one reported metric. target says, for a per-layer
// metric, which end-to-end metric on which workload it should move; the
// runs print it beside the value, because BENCHMARK.json has no field for it.
type metricDef struct {
	name, unit, better, target string
}

// The end-to-end times are host seconds scaled to the host probe's
// reference speed (probe.go); the runs print the raw seconds too.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", "median host time of one workload execution"},
	{"setup_s", "s", "lower", "median host time of the same configs with the horizon cut to 1 ns"},
	{"cell_wall_p50_s", "s", "lower", "median over executions of each execution's nearest-rank p50 of its simulations' Output.Kernel.WallTime"},
	{"cell_wall_p90_s", "s", "lower", "the same with each execution's p90; the run prints how many samples lie beyond it"},
	{"peak_heap_mb", "MB", "lower", "maximum of /gc/heap/live:bytes over the measured executions"},
}

// sentKinds are the protocol message kinds diffusion.sent.<kind> reports,
// named as msg.Kind prints them.
var sentKinds = []string{"interest", "exploratory", "data", "inccost", "reinforce", "negreinforce", "repairprobe"}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count", "lower", "wall_s on scale_20k"},
		{"sim.events_per_s", "1/s", "higher", "wall_s on scale_20k"},
		{"sim.queue_highwater", "count", "lower", "wall_s on scale_20k"},
		{"sim.schedule_step_ns", "ns", "lower", "wall_s on every workload"},
		{"sim.run_self_s", "s", "lower", "wall_s on every workload (event loop minus strategy and observer spans)"},
		{"mac.data_tx", "count", "lower", "wall_s on paper_cell"},
		{"mac.delivered", "count", "lower", "wall_s on paper_cell"},
		{"mac.collisions", "count", "lower", "wall_s on paper_cell"},
		{"mac.retries", "count", "lower", "wall_s on paper_cell"},
		{"mac.backoffs", "count", "lower", "wall_s on paper_cell"},
		{"mac.bytes_on_air", "bytes", "lower", "wall_s on paper_cell"},
		{"mac.rx_useful_ratio", "ratio", "higher", "wall_s on paper_cell"},
		{"mac.broadcast_ns", "ns", "lower", "wall_s on paper_cell"},
		{"mac.rx_drops", "count", "lower", "wall_s on paper_cell (drop hook)"},
		{"mac.unicast_ack_ratio", "ratio", "higher", "wall_s on paper_cell (unicast-outcome hook)"},
		{"mac.new_s", "s", "lower", "setup_s on scale_20k"},
	}
	for _, k := range sentKinds {
		defs = append(defs, metricDef{"diffusion.sent." + k, "count", "lower", "wall_s on paper_cell and scale_20k"})
	}
	defs = append(defs, []metricDef{
		{"diffusion.setcover_calls", "count", "lower", "wall_s on paper_cell and scale_20k"},
		{"diffusion.gradient_cache_hit_ratio", "ratio", "higher", "wall_s on paper_cell and scale_20k"},
		{"diffusion.trace_records", "count", "lower", "trace.overhead_s on every workload"},
		{"diffusion.new_s", "s", "lower", "setup_s on scale_20k"},
		{"diffusion.start_s", "s", "lower", "setup_s on scale_20k"},
		{"strategy.choose_upstream_calls", "count", "lower", "wall_s on paper_cell (greedy)"},
		{"strategy.truncate_calls", "count", "lower", "wall_s on paper_cell (greedy)"},
		{"strategy.busy_s", "s", "lower", "wall_s on paper_cell (greedy)"},
		{"metrics.observer_s", "s", "lower", "wall_s on paper_cell"},
		{"metrics.finalize_s", "s", "lower", "wall_s on scale_20k"},
		{"metrics.delivery_ratio", "ratio", "higher", "none: a speed-only change leaves it identical"},
		{"metrics.comm_energy_j", "J", "lower", "none: a speed-only change leaves it identical"},
		{"metrics.delay_p50_ms", "ms", "lower", "none: a speed-only change leaves it identical"},
		{"topology.generate_s", "s", "lower", "setup_s on scale_20k and fig_sweep"},
		{"topology.mean_degree", "count", "lower", "none: fixed by the workload"},
		{"workload.place_tries", "count", "lower", "setup_s on fig_sweep"},
		{"workload.place_s", "s", "lower", "setup_s on scale_20k and fig_sweep"},
		{"harness.cells", "count", "lower", "none: fixed by the workload"},
		{"harness.worker_idle_s", "s", "lower", "wall_s and cell_wall_p90_s on fig_sweep"},
		{"runtime.alloc_bytes_per_event", "bytes", "lower", "wall_s and peak_heap_mb on scale_20k"},
		{"runtime.gc_cpu_share", "ratio", "lower", "wall_s and peak_heap_mb on scale_20k"},
	}...)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio", "lower",
			"wall_s on every workload (sampled self time of the event loop)"})
	}
	return append(defs,
		metricDef{"trace.cpu_samples", "count", "higher", "none: the sample count behind the *.cpu_share values"},
		metricDef{"trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"},
	)
}()
