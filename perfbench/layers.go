package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// layerCountsFromExec fills the per-layer counts an untraced execution
// reports: kernel statistics and model outputs from each cell, MAC counters
// from Output.MAC (a sweep's from the merged harness telemetry, since its
// ledger omits them), protocol sends from Output.Sent.
func layerCountsFromExec(vals map[string]float64, u execOut, sweep bool) {
	var events, cellWall, deliv, comm, delay float64
	var highwater int
	sent := map[string]float64{}
	var dataTx, delivered, collisions, retries, backoffs, bytesOnAir float64
	for _, c := range u.cells {
		events += float64(c.events)
		cellWall += c.wall.Seconds()
		highwater = max(highwater, c.highwater)
		for k, n := range c.sent {
			sent[k.String()] += float64(n)
		}
		dataTx += float64(c.mac.DataTx)
		delivered += float64(c.mac.Delivered)
		collisions += float64(c.mac.Collisions)
		retries += float64(c.mac.Retries)
		backoffs += float64(c.mac.Backoffs)
		bytesOnAir += float64(c.mac.BytesOnAir)
		deliv += c.metrics.DeliveryRatio
		comm += c.metrics.CommEnergy
		delay += c.metrics.DelayP50
	}
	if sweep {
		dataTx = obs.Value(u.telemetry, "mac_data_tx")
		delivered = obs.Value(u.telemetry, "mac_delivered")
		collisions = obs.Value(u.telemetry, "mac_collisions")
		retries = obs.Value(u.telemetry, "mac_retries")
		backoffs = obs.Value(u.telemetry, "mac_backoffs")
		bytesOnAir = obs.Value(u.telemetry, "mac_bytes_on_air")
		setCoverFromTelemetry(vals, u.telemetry)
	}
	n := float64(len(u.cells))
	vals["sim.events"] = events
	vals["sim.events_per_s"] = ratio(events, cellWall)
	vals["sim.queue_highwater"] = float64(highwater)
	vals["mac.data_tx"] = dataTx
	vals["mac.delivered"] = delivered
	vals["mac.collisions"] = collisions
	vals["mac.retries"] = retries
	vals["mac.backoffs"] = backoffs
	vals["mac.bytes_on_air"] = bytesOnAir
	vals["mac.rx_useful_ratio"] = ratio(delivered, delivered+collisions)
	for _, k := range sentKinds {
		vals["diffusion.sent."+k] = sent[k]
	}
	vals["metrics.delivery_ratio"] = ratio(deliv, n)
	vals["metrics.comm_energy_j"] = ratio(comm, n)
	vals["metrics.delay_p50_ms"] = ratio(delay, n) * 1000
}

func setCoverFromTelemetry(vals map[string]float64, tel []obs.Metric) {
	hits := obs.Value(tel, "diffusion_gradient_cache_hits")
	misses := obs.Value(tel, "diffusion_gradient_cache_misses")
	vals["diffusion.setcover_calls"] = obs.Value(tel, "diffusion_setcover_calls")
	vals["diffusion.gradient_cache_hit_ratio"] = ratio(hits, hits+misses)
}

// layerCountsFromTrace fills the per-layer spans and counts of the traced
// execution. On fig_sweep the layer spans and strategy counts cover the
// traced stack's pass over field 0 of every sweep point.
func layerCountsFromTrace(vals map[string]float64, tr *Trace, lc *layerCounts, sweep bool) {
	byName := map[string]SpanSum{}
	for _, s := range summarize(tr.Spans()) {
		byName[s.Name] = s
	}
	total := func(name string) float64 { return byName[name].Total.Seconds() }
	vals["sim.run_self_s"] = byName["sim.run"].Self.Seconds()
	vals["mac.new_s"] = total("mac.new")
	vals["diffusion.new_s"] = total("diffusion.new")
	vals["diffusion.start_s"] = total("diffusion.start")
	vals["strategy.busy_s"] = total("strategy.choose_upstream") + total("strategy.truncate")
	vals["metrics.observer_s"] = total("metrics.observer")
	vals["metrics.finalize_s"] = total("metrics.finalize")
	vals["topology.generate_s"] = total("topology.generate")
	vals["workload.place_s"] = total("workload.place")

	vals["strategy.choose_upstream_calls"] = float64(byName["strategy.choose_upstream"].Count)
	vals["strategy.truncate_calls"] = float64(byName["strategy.truncate"].Count)
	vals["mac.rx_drops"] = float64(lc.rxDrops)
	vals["mac.unicast_ack_ratio"] = ratio(float64(lc.unicastAcked), float64(lc.unicastAcked+lc.unicastLost))
	vals["diffusion.trace_records"] = float64(lc.traceRecords)
	vals["workload.place_tries"] = float64(lc.placeTries)
	var deg float64
	for _, d := range lc.meanDegree {
		deg += d
	}
	vals["topology.mean_degree"] = ratio(deg, float64(len(lc.meanDegree)))
	if !sweep {
		setCoverFromTelemetry(vals, lc.telemetry)
	}
}

// The profile baseline ROADMAP.md records for the serial 5000-node run.
var roadmapBaseline = []struct {
	what  string
	share float64
}{
	{"mac", 0.37}, {"diffusion", 0.50}, {"sim", 0.14}, {"repairPass", 0.11},
}

// crossCheck profiles the serial 5000-node, 20 s greedy run the ROADMAP
// baseline was taken on, five times over for enough samples, and prints the
// sampled split beside the baseline.
func crossCheck(out io.Writer) error {
	cfg := core.DefaultConfig()
	cfg.Nodes = 5000
	cfg.FieldSide = 200 * math.Sqrt(float64(cfg.Nodes)/150)
	cfg.Seed = 1
	cfg.Duration = 20 * time.Second
	var runErr error
	prof, err := profiled(func() {
		for i := 0; i < 5 && runErr == nil; i++ {
			_, runErr = core.Run(cfg)
		}
	})
	if err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	shares, total, repair := prof.attribute("repairPass")
	fmt.Fprintf(out, "5000-node greedy run x5, %d samples\n", total)
	for _, l := range cpuLayers {
		fmt.Fprintf(out, "  %-10s %6.1f%%\n", l, 100*ratio(float64(shares[l]), float64(total)))
	}
	fmt.Fprintf(out, "  %-10s %6.1f%% (samples with repairPass on the stack)\n", "repairPass",
		100*ratio(float64(repair), float64(total)))
	for _, b := range roadmapBaseline {
		got := float64(repair)
		if b.what != "repairPass" {
			got = float64(shares[b.what])
		}
		fmt.Fprintf(out, "  baseline %-10s %4.0f%%  measured %5.1f%%\n", b.what, 100*b.share, 100*ratio(got, float64(total)))
	}
	return nil
}
