package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/harness"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/obs"
)

// workDir holds everything a run writes: sweep ledgers and CSVs, span
// files. It lies inside the checkout the benchmark runs from.
const workDir = ".bench_build"

// cellSpec is one simulation of a workload execution.
type cellSpec struct {
	key string
	cfg core.Config
}

// cellOut is what one simulation produced, as the benchmark checks it.
type cellOut struct {
	key       string
	digest    string
	wall      time.Duration // Output.Kernel.WallTime
	events    uint64
	highwater int
	metrics   metrics.Result
	mac       mac.Stats // zero for sweep cells: the ledger does not carry it
	sent      map[msg.Kind]int
	err       error // the simulation failed or failed a check
}

// execOut is one workload execution.
type execOut struct {
	wall      time.Duration
	cells     []cellOut
	telemetry []obs.Metric // fig_sweep: the merged harness telemetry of both figures
}

// workloadDef is one benchmark workload. A serial workload executes its cells
// back to back through core.Run, as wsnsim does; a sweep executes through
// harness.Fig5 and harness.Fig6, as experiments does.
type workloadDef struct {
	name string
	// cells lists the simulations of one execution of input variant v
	// (0 <= v < 100). A run cycles through a few variants drawn from its
	// seed, so its medians cover several fields, and every variant that
	// repeats re-checks its digests.
	cells func(seed int64, v int) []cellSpec
	// sweep, when non-nil, gives the harness options of variant v.
	sweep func(seed int64, v int) harness.Options
}

// sweepFields and sweepDuration size fig_sweep: 7 densities x 2 schemes x
// 2 figures x 4 fields = 112 cells an execution, so each execution's p90
// keeps eleven samples beyond it. 60 s spans one exploratory period (50 s)
// and two failure waves (30 s), so Fig 6 cells re-explore and re-reinforce
// after nodes go down.
const (
	sweepFields   = 4
	sweepDuration = 60 * time.Second
)

var workloads = []workloadDef{
	{
		name: "paper_cell",
		cells: func(seed int64, v int) []cellSpec {
			var out []cellSpec
			for _, s := range []core.Scheme{core.SchemeGreedy, core.SchemeOpportunistic} {
				cfg := core.DefaultConfig()
				cfg.Seed = seed*100 + int64(v)
				cfg.Scheme = s
				cfg.Nodes = 350
				cfg.Workload.Sinks = 5
				out = append(out, cellSpec{key: s.String(), cfg: cfg})
			}
			return out
		},
	},
	{
		name: "scale_20k",
		cells: func(seed int64, v int) []cellSpec {
			cfg := core.DefaultConfig()
			cfg.Seed = seed*100 + int64(v)
			cfg.Nodes = 20000
			// The paper's middle density: 150 nodes per 200 m square.
			cfg.FieldSide = 200 * math.Sqrt(float64(cfg.Nodes)/150)
			cfg.Duration = 30 * time.Second
			return []cellSpec{{key: "greedy", cfg: cfg}}
		},
	},
	{
		name:  "fig_sweep",
		cells: func(seed int64, v int) []cellSpec { return sweepCells(sweepOptions(seed, v)) },
		sweep: sweepOptions,
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func sweepOptions(seed int64, v int) harness.Options {
	o := harness.DefaultOptions() // Telemetry on, as experiments runs by default
	o.Fields = sweepFields
	o.Duration = sweepDuration
	// The harness adds nodes*1000 + field to BaseSeed, so variants of one seed
	// and the variants of different seeds never share a field.
	o.BaseSeed = seed*100_000_000 + int64(v)*1_000_000
	o.Workers = runtime.NumCPU()
	return o
}

// sweepCells lists the cells harness.Fig5 and harness.Fig6 simulate under o,
// with the configurations and seeds the harness gives them. The ledger
// records each cell's seed, and exec checks them against this list.
func sweepCells(o harness.Options) []cellSpec {
	var out []cellSpec
	for _, fig := range []string{"fig5", "fig6"} {
		for _, s := range []core.Scheme{core.SchemeGreedy, core.SchemeOpportunistic} {
			for _, x := range o.Nodes {
				for f := 0; f < o.Fields; f++ {
					cfg := core.DefaultConfig()
					cfg.Scheme = s
					cfg.Nodes = x
					cfg.Duration = o.Duration
					cfg.Seed = o.BaseSeed + int64(x)*1_000 + int64(f)
					cfg.Telemetry = &obs.Config{}
					if fig == "fig6" {
						fc := failure.DefaultConfig()
						cfg.Failures = &fc
					}
					out = append(out, cellSpec{key: sweepKey(fig, s.String(), x, f), cfg: cfg})
				}
			}
		}
	}
	return out
}

func sweepKey(fig, series string, x, field int) string {
	return fmt.Sprintf("%s|%s|%d|%d", fig, series, x, field)
}

// runCore runs one cell through core.Run and checks it.
func runCore(spec cellSpec) cellOut {
	out, err := core.Run(spec.cfg)
	c := cellOut{key: spec.key, err: err}
	if err != nil {
		return c
	}
	c.wall, c.events, c.highwater = out.Kernel.WallTime, out.Kernel.Events, out.Kernel.QueueHighWater
	c.metrics, c.mac, c.sent = out.Metrics, out.MAC, out.Sent
	c.digest = simDigest(out.Metrics, out.MAC, out.Sent, out.Kernel.Events)
	c.err = checkSim(out.Metrics, out.Kernel.Events, spec.cfg.Failures != nil)
	return c
}

// exec runs one execution of variant v untraced.
func (w *workloadDef) exec(seed int64, v int) (execOut, error) {
	if w.sweep == nil {
		t0 := time.Now()
		var res execOut
		for _, spec := range w.cells(seed, v) {
			res.cells = append(res.cells, runCore(spec))
		}
		res.wall = time.Since(t0)
		return res, nil
	}
	return w.execSweep(seed, v, nil)
}

// execSweep regenerates Fig 5 and Fig 6 into a fresh directory with their
// ledger, CSVs and manifests, then reads the cells back from the ledger.
// With a trace it records a span around each harness call and, as a child
// of its figure's span, one per cell that Options.OnRun reports.
func (w *workloadDef) execSweep(seed int64, v int, tr *Trace) (execOut, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return execOut{}, err
	}
	dir, err := os.MkdirTemp(workDir, "sweep-")
	if err != nil {
		return execOut{}, err
	}
	defer os.RemoveAll(dir)
	o := w.sweep(seed, v)
	o.Ledger = filepath.Join(dir, "ledger.ndjson")
	// Cells run only inside the figure spans, so the span begun last is the
	// parent of every cell OnRun reports.
	parent := -1
	var mu sync.Mutex
	reported := 0
	o.OnRun = func(lo harness.LedgerOutput) {
		mu.Lock()
		reported++
		mu.Unlock()
		if tr != nil {
			now := time.Now()
			tr.Add("harness.cell", parent, now.Add(-lo.Kernel.WallTime), now)
		}
	}
	span := func(name string, f func() error) error {
		if tr == nil {
			return f()
		}
		parent = tr.Begin(name)
		defer tr.End(parent)
		return f()
	}

	t0 := time.Now()
	agg := obs.NewRegistry()
	for _, fig := range []struct {
		name string
		fn   func(harness.Options) (*harness.Table, error)
	}{{"fig5", harness.Fig5}, {"fig6", harness.Fig6}} {
		var tbl *harness.Table
		if err := span("harness."+fig.name, func() (err error) {
			tbl, err = fig.fn(o)
			return err
		}); err != nil {
			return execOut{}, err
		}
		if err := span("harness.write", func() error {
			if err := harness.WriteCSV(dir, fig.name+".csv", tbl.CSV); err != nil {
				return err
			}
			return tbl.Manifest().Write(filepath.Join(dir, fig.name+".manifest.json"))
		}); err != nil {
			return execOut{}, err
		}
		if err := agg.Absorb(tbl.Meta.Telemetry); err != nil {
			return execOut{}, err
		}
	}
	wall := time.Since(t0)

	entries, err := readLedger(o.Ledger)
	if err != nil {
		return execOut{}, err
	}
	want := sweepCells(o)
	res := execOut{wall: wall, telemetry: agg.Snapshot()}
	series := map[string]float64{} // summed delivery ratio per figure series
	for _, spec := range want {
		c := cellOut{key: spec.key}
		e, ok := entries[spec.key]
		switch {
		case !ok:
			c.err = fmt.Errorf("cell missing from the ledger")
		case e.Seed != spec.cfg.Seed:
			c.err = fmt.Errorf("ledger seed %d, expected %d", e.Seed, spec.cfg.Seed)
		default:
			lo := e.Output
			c.wall, c.events, c.highwater = lo.Kernel.WallTime, lo.Kernel.Events, lo.Kernel.QueueHighWater
			c.metrics, c.sent = lo.Metrics, lo.Sent
			c.digest = simDigest(lo.Metrics, mac.Stats{}, lo.Sent, lo.Kernel.Events)
			c.err = checkSim(lo.Metrics, lo.Kernel.Events, spec.cfg.Failures != nil)
			series[e.Figure+" "+e.Series] += lo.Metrics.DeliveryRatio
		}
		res.cells = append(res.cells, c)
	}
	for name, d := range series {
		if d == 0 {
			return res, fmt.Errorf("series %s delivered nothing", name)
		}
	}
	if len(entries) != len(want) || reported != len(want) {
		return res, fmt.Errorf("ledger holds %d cells and OnRun saw %d, expected %d",
			len(entries), reported, len(want))
	}
	return res, nil
}

func readLedger(path string) (map[string]harness.LedgerEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]harness.LedgerEntry{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var e harness.LedgerEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
		out[sweepKey(e.Figure, e.Series, e.X, e.Field)] = e
	}
	return out, sc.Err()
}

// setup runs the cells of variant v through core.Run with the horizon cut
// to 1 ns: field generation, placement, the MAC, diffusion, start and
// teardown, with no event fired.
func (w *workloadDef) setup(seed int64, v int) error {
	for _, spec := range w.cells(seed, v) {
		cfg := spec.cfg
		cfg.Duration, cfg.DrainTail = time.Nanosecond, 0
		out, err := core.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", spec.key, err)
		}
		if out.Kernel.Events != 0 {
			return fmt.Errorf("%s set-up fired %d events", spec.key, out.Kernel.Events)
		}
	}
	return nil
}
