package harness

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/obs"
	"repro/internal/stats"
)

// ScaleNodes is the default node-count ladder for the scale figure; the
// quick preset stops after the first rung, and ScaleNodesBig is the opt-in
// extension (experiments -big) whose top rung needs several GB of heap.
var (
	ScaleNodes      = []int{500, 1000, 2000, 5000, 10000, 20000}
	ScaleNodesQuick = []int{500}
	ScaleNodesBig   = []int{50000}
)

// scaleBaseNodes/scaleBaseSide pin the paper's middle density (150 nodes on
// a 200 m square); the scale sweep grows the field with √nodes so every rung
// keeps that density and only the population changes.
const (
	scaleBaseNodes = 150
	scaleBaseSide  = 200.0
)

// scaleFieldSide returns the square side that holds the paper's middle
// density at the given node count.
func scaleFieldSide(nodes int) float64 {
	return scaleBaseSide * math.Sqrt(float64(nodes)/float64(scaleBaseNodes))
}

// ScaleRow aggregates one (nodes, scheme) rung over the sampled fields.
type ScaleRow struct {
	Nodes     int
	Scheme    string
	FieldSide float64
	// Density is the realized mean radio degree, as a sanity check that the
	// √nodes field growth held the paper's density.
	Density stats.Sample
	// Energy is average dissipated energy per node per received distinct
	// event (the paper's metric); Ratio and Delay complete the panel triple.
	Energy stats.Sample
	Ratio  stats.Sample
	Delay  stats.Sample
	// DelayP50/P95/P99 and Depth are the lineage-derived per-delivery
	// latency percentiles and mean hop depth; MaxDepth is the deepest
	// delivery over the rung's fields.
	DelayP50 stats.Sample
	DelayP95 stats.Sample
	DelayP99 stats.Sample
	Depth    stats.Sample
	MaxDepth int
	// Events and WallTime sum the rung's kernel costs; EventsPerSec is the
	// throughput headline the rung exists to measure.
	Events   uint64
	WallTime float64 // seconds
	// PeakHeapBytes is the largest per-run in-use heap reading
	// (obs.HeapFootprintBytes) over the rung's fields. Rungs run
	// sequentially with a forced GC at each rung start (obs.SettleHeap), so
	// the reading is per-rung rather than a process-lifetime high-water
	// mark: each value is this rung's own footprint, and BytesPerNode is an
	// honest per-node cost. Ledger replays restore the original reading.
	PeakHeapBytes uint64
}

// BytesPerNode returns the rung's peak heap divided by its population — the
// per-node memory cost the SoA and receiver-set work exists to bound.
func (r *ScaleRow) BytesPerNode() uint64 {
	if r.Nodes <= 0 {
		return 0
	}
	return r.PeakHeapBytes / uint64(r.Nodes)
}

// EventsPerSec returns the rung's kernel throughput per wall-clock second.
func (r *ScaleRow) EventsPerSec() float64 {
	if r.WallTime <= 0 {
		return 0
	}
	return float64(r.Events) / r.WallTime
}

// ScaleTable is the regenerated scalability figure ("figscale").
type ScaleTable struct {
	Fields int
	Rows   []ScaleRow
	// Meta is the sweep's execution record, always filled by Scale.
	Meta *RunMeta
}

// Manifest builds the provenance record written beside the figure's CSV,
// including the per-rung bytes/node series (max across schemes, aligned
// with the manifest's Xs).
func (t *ScaleTable) Manifest() *obs.Manifest {
	schemes := make([]string, len(bothSchemes))
	for i, s := range bothSchemes {
		schemes[i] = s.String()
	}
	var xs []int
	var bpn []uint64
	for i := range t.Rows {
		r := &t.Rows[i]
		if len(xs) == 0 || xs[len(xs)-1] != r.Nodes {
			xs = append(xs, r.Nodes)
			bpn = append(bpn, r.BytesPerNode())
		} else if b := r.BytesPerNode(); b > bpn[len(bpn)-1] {
			bpn[len(bpn)-1] = b
		}
	}
	m := t.Meta.Manifest("figscale", schemes, xs)
	m.BytesPerNode = bpn
	return m
}

// Scale runs the scalability sweep: each node count in o.Nodes (ascending)
// at the paper's middle density, both schemes, averaged over the sampled
// fields. Unlike the other figures the runs execute sequentially — the heap
// readings are process-wide, so one run at a time (with a forced GC between
// rungs) is what makes the per-rung footprint column meaningful.
func Scale(o Options) (*ScaleTable, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	for i := 1; i < len(o.Nodes); i++ {
		if o.Nodes[i] <= o.Nodes[i-1] {
			return nil, fmt.Errorf("harness: figscale node ladder must be strictly ascending, got %v", o.Nodes)
		}
	}

	led, err := openLedger(o)
	if err != nil {
		return nil, err
	}
	defer led.Close()
	tr := newProgressTracker(len(o.Nodes) * len(bothSchemes) * o.Fields)

	t := &ScaleTable{Fields: o.Fields}
	meta := newMetaCollector(o)
	for _, nodes := range o.Nodes {
		// Drop the previous rung's garbage so this rung's heap readings
		// attribute only its own footprint.
		obs.SettleHeap()
		side := scaleFieldSide(nodes)
		for _, s := range bothSchemes {
			row := ScaleRow{Nodes: nodes, Scheme: s.String(), FieldSide: side}
			for f := 0; f < o.Fields; f++ {
				cfg := baseConfig(o, s, nodes, f)
				cfg.FieldSide = side
				if o.Telemetry {
					cfg.Telemetry = &obs.Config{}
				}
				cid := cellID{figure: "figscale", series: row.Scheme, x: nodes, field: f}
				lo, err := runCell(o, led, tr, cid, cfg)
				if err != nil {
					return nil, fmt.Errorf("harness: figscale %d/%s field %d: %w",
						nodes, row.Scheme, f, err)
				}
				if err := meta.add(lo); err != nil {
					return nil, err
				}
				m := lo.Metrics
				row.Density = append(row.Density, lo.Density)
				row.Energy = append(row.Energy, m.AvgDissipatedEnergy)
				row.Ratio = append(row.Ratio, m.DeliveryRatio)
				row.Delay = append(row.Delay, m.AvgDelay)
				row.DelayP50 = append(row.DelayP50, m.DelayP50)
				row.DelayP95 = append(row.DelayP95, m.DelayP95)
				row.DelayP99 = append(row.DelayP99, m.DelayP99)
				row.Depth = append(row.Depth, m.MeanDepth)
				if m.MaxDepth > row.MaxDepth {
					row.MaxDepth = m.MaxDepth
				}
				row.Events += lo.Kernel.Events
				row.WallTime += lo.Kernel.WallTime.Seconds()
				if lo.PeakHeap > row.PeakHeapBytes {
					row.PeakHeapBytes = lo.PeakHeap
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Meta = meta.finish()
	return t, nil
}

// Render writes the sweep as an aligned text table, one row per
// (nodes, scheme).
func (t *ScaleTable) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== figscale: constant-density scaling (%d fields) ==\n",
		t.Fields); err != nil {
		return err
	}
	header := fmt.Sprintf("%6s %14s %7s %8s %10s %9s %8s %10s %7s %8s",
		"nodes", "scheme", "side_m", "density", "events/s", "peak_mb", "b/node", "energy", "ratio", "delay_s")
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for i := range t.Rows {
		r := &t.Rows[i]
		fmt.Fprintf(w, "%6d %14s %7.0f %8.2f %10.0f %9.1f %8d %10.3g %7.3f %8.3f\n",
			r.Nodes, r.Scheme, r.FieldSide, r.Density.Mean(),
			r.EventsPerSec(), float64(r.PeakHeapBytes)/(1<<20), r.BytesPerNode(),
			r.Energy.Mean(), r.Ratio.Mean(), r.Delay.Mean())
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV writes the sweep in long form, one row per (nodes, scheme). The
// leading comment documents the memory columns: since the rung-start GC
// landed, peak_heap_bytes is each rung's own in-use heap (not a process
// high-water mark), and bytes_per_node divides it by the population.
func (t *ScaleTable) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "# peak_heap_bytes is the rung's own in-use heap (GC forced at rung start; not a monotonic process high-water mark); bytes_per_node = peak_heap_bytes / nodes"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "figure,nodes,scheme,field_side_m,density_mean,events,wall_s,events_per_sec,peak_heap_bytes,bytes_per_node,energy_mean,energy_ci,ratio_mean,ratio_ci,delay_mean,delay_ci,delay_p50,delay_p95,delay_p99,depth_mean,depth_max,fields"); err != nil {
		return err
	}
	for i := range t.Rows {
		r := &t.Rows[i]
		if _, err := fmt.Fprintf(w, "figscale,%d,%s,%g,%g,%d,%g,%g,%d,%d,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%d,%d\n",
			r.Nodes, r.Scheme, r.FieldSide, r.Density.Mean(),
			r.Events, r.WallTime, r.EventsPerSec(), r.PeakHeapBytes, r.BytesPerNode(),
			r.Energy.Mean(), r.Energy.CI95(),
			r.Ratio.Mean(), r.Ratio.CI95(),
			r.Delay.Mean(), r.Delay.CI95(),
			r.DelayP50.Mean(), r.DelayP95.Mean(), r.DelayP99.Mean(),
			r.Depth.Mean(), r.MaxDepth, t.Fields); err != nil {
			return err
		}
	}
	return nil
}
