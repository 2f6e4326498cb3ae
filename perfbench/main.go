// Command perfbench is the repository's benchmark. It runs one workload
// as a single process, checks the simulated outputs, and prints every metric
// by name with its unit; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload <paper_cell|scale_20k|fig_sweep> --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics: it times the workload's
// set-up, then executes the workload back to back for S seconds, cycling
// through three input variants drawn from the seed, and reports medians. With
// --trace 1 it reports the per-layer metrics from three executions of
// variant 0: one under a CPU profile (the *.cpu_share split), an untraced one
// (counts, runtime statistics, the reference for tracing overhead), and a
// traced one that assembles the stack from the layers' public constructors
// with span and count recorders at the layer boundaries; then it times the
// kernel and MAC drivers at the workload's queue depth and on its field.
// --seconds bounds only the --trace 0 executions.
//
// --crosscheck profiles one serial 5000-node run and prints its layer split
// beside the profile baseline ROADMAP.md records; it gates nothing.
//
// Run it from the repository root through perfbench/run.sh, which builds it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/mac"
	"repro/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper_cell, scale_20k or fig_sweep")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 30, "seconds of measured executions (--trace 0)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	crosscheck := fs.Bool("crosscheck", false, "profile a 5000-node run against the ROADMAP baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fmt.Fprintf(stdout, "provenance: nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if *crosscheck {
		if err := crossCheck(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	switch {
	case err != nil:
	case *seconds < 1:
		err = fmt.Errorf("--seconds %d < 1", *seconds)
	case *traced != 0 && *traced != 1:
		err = fmt.Errorf("--trace %d is neither 0 nor 1", *traced)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "workload %s seed %d\n", w.name, *seed)

	chk := &checker{out: stdout, digests: map[string]string{}}
	var vals map[string]float64
	var defs []metricDef
	if *traced == 0 {
		defs = endToEnd
		vals, err = measure(w, *seed, time.Duration(*seconds)*time.Second, chk, stdout)
	} else {
		defs = perLayer
		vals, err = traceRun(w, *seed, chk, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s not measured\n", d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-36s %16.6g %-6s (%s)\n", d.name, v, d.unit, d.target)
	}
	if chk.attempted > 0 {
		fmt.Fprintf(stdout, "failed_ratio %.4g (%d of %d simulations)\n",
			float64(chk.failed)/float64(chk.attempted), chk.failed, chk.attempted)
	}
	res.Correct = chk.failed == 0 && chk.attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// checker counts simulations and failures and holds each cell's digest per
// input variant: a cell simulated again must reproduce it exactly.
type checker struct {
	out               io.Writer
	attempted, failed int
	digests           map[string]string
}

// cells checks one execution's cells. A non-nil err fails the execution as
// a whole; the cells it did produce are still checked.
func (c *checker) cells(phase string, v int, cells []cellOut, err error) {
	if err != nil {
		c.attempted++
		c.failed++
		fmt.Fprintf(c.out, "FAIL %s variant %d: %v\n", phase, v, err)
	}
	for _, cell := range cells {
		c.attempted++
		if cell.err != nil {
			c.failed++
			fmt.Fprintf(c.out, "FAIL %s variant %d %s: %v\n", phase, v, cell.key, cell.err)
			continue
		}
		c.match(phase, v, cell.key, cell.digest)
	}
}

// match compares a digest with the first one recorded for (v, key).
func (c *checker) match(phase string, v int, key, digest string) {
	k := fmt.Sprintf("%d|%s", v, key)
	first, ok := c.digests[k]
	if !ok {
		c.digests[k] = digest
		return
	}
	if first != digest {
		c.failed++
		fmt.Fprintf(c.out, "FAIL %s variant %d %s: digest %s, first run gave %s\n", phase, v, key, digest, first)
	}
}

// printDigests prints each variant's digest: per cell for a few cells, and
// as one hash over the sorted cell digests for a sweep.
func (c *checker) printDigests() {
	byVariant := map[string][]string{}
	for k, d := range c.digests {
		v, key, _ := strings.Cut(k, "|")
		byVariant[v] = append(byVariant[v], key+"="+d)
	}
	var vs []string
	for v := range byVariant {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	for _, v := range vs {
		ds := byVariant[v]
		sort.Strings(ds)
		if len(ds) <= 4 {
			fmt.Fprintf(c.out, "digest variant %s: %s\n", v, strings.Join(ds, " "))
			continue
		}
		fmt.Fprintf(c.out, "digest variant %s: %s over %d cells\n", v,
			simDigestOf(strings.Join(ds, "\n")), len(ds))
	}
}

// measure produces the end-to-end metrics. Its times are host seconds
// scaled to the probe's reference speed (see probe.go); the probe runs
// every eighth set-up, before every execution and after the last, between,
// never during, the timed work. Set-up is scaled by the probes of the
// set-up phase and the executions by the probes around them, so that the
// few seconds of set-up do not weigh on the scale of the executions.
func measure(w *workloadDef, seed int64, d time.Duration, chk *checker, out io.Writer) (map[string]float64, error) {
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	var setupProbes, execProbes []float64

	// Set-up: repeated over eight variants until both floors are met, so
	// its median covers fields that need different numbers of placement
	// tries.
	var setups []float64
	t0 := time.Now()
	for len(setups) < 24 || (time.Since(t0) < time.Second && len(setups) < 400) {
		if len(setups)%8 == 0 {
			setupProbes = append(setupProbes, probe.time())
		}
		runtime.GC()
		s0 := time.Now()
		if err := w.setup(seed, len(setups)%8); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(s0).Seconds())
	}

	// Executions cycle through three variants, at least four times so that
	// one variant repeats, and then while one more, as long as their median
	// so far, still ends within d.
	heap := startHeapPeak()
	var walls []float64
	var execCells [][]float64 // each execution's cell walls
	sims := 0
	start := time.Now()
	more := func(i int) bool {
		if i < 4 {
			return true
		}
		next := 0.0
		if len(walls) > 0 {
			next = median(walls)
		}
		return time.Since(start).Seconds()+next <= d.Seconds()
	}
	for i := 0; more(i); i++ {
		v := i % 3
		execProbes = append(execProbes, probe.time())
		runtime.GC()
		res, err := w.exec(seed, v)
		chk.cells("measure", v, res.cells, err)
		if err != nil {
			continue
		}
		walls = append(walls, res.wall.Seconds())
		var cw []float64
		for _, c := range res.cells {
			if c.err == nil {
				cw = append(cw, c.wall.Seconds())
			}
		}
		sims += len(cw)
		if len(cw) > 0 {
			execCells = append(execCells, cw)
		}
	}
	peak := heap.stop()
	execProbes = append(execProbes, probe.time())
	chk.printDigests()

	p50, _ := execPercentile(execCells, 50)
	p90, beyond := execPercentile(execCells, 90)
	rule := "meets"
	if beyond < minTail {
		rule = "does not meet"
	}
	raw := map[string]float64{
		"wall_s":          median(walls),
		"setup_s":         median(setups),
		"cell_wall_p50_s": p50,
		"cell_wall_p90_s": p90,
	}
	setupScale := probeRefSeconds / mean(setupProbes)
	execScale := probeRefSeconds / mean(execProbes)
	fmt.Fprintf(out, "execution walls (s): %s\n", fmtSeconds(walls))
	fmt.Fprintf(out, "host probe: reference %.4fs; set-up mean %.4fs over %d, time scale %.4f; executions mean %.4fs over %d, time scale %.4f\n",
		probeRefSeconds, mean(setupProbes), len(setupProbes), setupScale, mean(execProbes), len(execProbes), execScale)
	fmt.Fprintf(out, "raw host times (s): wall %.4f setup %.6f cell p50 %.4f cell p90 %.4f\n",
		raw["wall_s"], raw["setup_s"], raw["cell_wall_p50_s"], raw["cell_wall_p90_s"])
	fmt.Fprintf(out, "samples: %d executions, %d set-ups, %d simulations; each execution's p90 has at least %d beyond it (%s the %d-sample rule)\n",
		len(walls), len(setups), sims, beyond, rule, minTail)
	vals := map[string]float64{"peak_heap_mb": float64(peak) / (1 << 20)}
	for k, v := range raw {
		vals[k] = v * execScale
	}
	vals["setup_s"] = raw["setup_s"] * setupScale
	return vals, nil
}

// heapPeak samples /gc/heap/live:bytes, the heap the last GC found live,
// which follows data-structure size rather than GC timing.
type heapPeak struct {
	done, quit chan struct{}
	peak       uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{}), quit: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, liveHeap())
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak; it waits for the sampler.
func (h *heapPeak) stop() uint64 {
	close(h.quit)
	<-h.done
	return max(h.peak, liveHeap())
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// runtimeStats reads the counters the runtime.* metrics difference.
func runtimeStats() (allocBytes uint64, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		totalCPU = s[2].Value.Float64()
	}
	return
}

// profiled runs f under the CPU profiler and returns the decoded profile.
func profiled(f func()) (*cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	f()
	pprof.StopCPUProfile()
	return parseProfile(buf.Bytes())
}

// traceRun produces the per-layer metrics.
func traceRun(w *workloadDef, seed int64, chk *checker, out io.Writer) (map[string]float64, error) {
	vals := map[string]float64{}

	// Profiled execution, first so that it also warms the process up for
	// the two timed executions after it: the sampled layer split.
	runtime.GC()
	var p execOut
	var execErr error
	prof, err := profiled(func() { p, execErr = w.exec(seed, 0) })
	chk.cells("profiled", 0, p.cells, execErr)
	if err = errors.Join(execErr, err); err != nil {
		return nil, err
	}
	shares, total, _ := prof.attribute("")
	for _, l := range cpuLayers {
		vals[l+".cpu_share"] = ratio(float64(shares[l]), float64(total))
	}
	vals["trace.cpu_samples"] = float64(total)
	fmt.Fprintf(out, "cpu profile: %d samples\n", total)

	// Untraced execution: counts, runtime statistics, overhead reference.
	runtime.GC()
	a0, gc0, cpu0 := runtimeStats()
	u, err := w.exec(seed, 0)
	a1, gc1, cpu1 := runtimeStats()
	chk.cells("untraced", 0, u.cells, err)
	if err != nil {
		return nil, err
	}
	layerCountsFromExec(vals, u, w.sweep != nil)
	vals["runtime.alloc_bytes_per_event"] = ratio(float64(a1-a0), vals["sim.events"])
	vals["runtime.gc_cpu_share"] = ratio(gc1-gc0, cpu1-cpu0)
	workers := 1
	if w.sweep != nil {
		workers = w.sweep(seed, 0).Workers
	}
	var cellSum float64
	highwater := 0
	for _, c := range u.cells {
		cellSum += c.wall.Seconds()
		highwater = max(highwater, c.highwater)
	}
	vals["harness.cells"] = float64(len(u.cells))
	vals["harness.worker_idle_s"] = float64(workers)*u.wall.Seconds() - cellSum

	// Traced execution.
	runtime.GC()
	tr := NewTrace()
	lc := &layerCounts{}
	tracedWall, field, err := tracedExec(w, seed, tr, lc, chk)
	if err != nil {
		return nil, err
	}
	vals["trace.overhead_s"] = tracedWall.Seconds() - u.wall.Seconds()
	fmt.Fprintf(out, "tracing overhead: traced wall %.3fs - untraced wall %.3fs = %.3fs\n",
		tracedWall.Seconds(), u.wall.Seconds(), vals["trace.overhead_s"])
	layerCountsFromTrace(vals, tr, lc, w.sweep != nil)

	fmt.Fprintf(out, "%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, s := range summarize(tr.Spans()) {
		fmt.Fprintf(out, "%-28s %8d %12.6f %12.6f\n", s.Name, s.Count, s.Total.Seconds(), s.Self.Seconds())
	}
	spanPath := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := tr.Write(spanPath); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans written to %s\n", spanPath)

	// Layer drivers at the workload's queue depth and on its field.
	vals["sim.schedule_step_ns"] = scheduleStepNs(highwater, seed, time.Second)
	cfg := w.cells(seed, 0)[0].cfg
	bns, err := broadcastNs(field, seed, cfg.Energy, cfg.MAC, time.Second)
	if err != nil {
		return nil, err
	}
	vals["mac.broadcast_ns"] = bns
	fmt.Fprintf(out, "drivers: schedule+step at queue depth %d, broadcast on a %d-node field\n",
		highwater, field.Len())
	chk.printDigests()
	return vals, nil
}

// tracedExec runs variant 0 through the traced stack and returns the traced
// wall time and the field the MAC driver runs on (the largest one). A serial
// workload's cells all run through the stack. A sweep runs through the
// harness with spans around its calls and a span per cell reported through
// OnRun, which is the traced wall; then field 0 of every (figure, scheme,
// density) point runs through the stack for the layer spans and counts.
func tracedExec(w *workloadDef, seed int64, tr *Trace, lc *layerCounts, chk *checker) (time.Duration, *topology.Field, error) {
	var field *topology.Field
	keep := func(f *topology.Field) {
		if field == nil || f.Len() > field.Len() {
			field = f
		}
	}
	if w.sweep == nil {
		t0 := time.Now()
		for _, spec := range w.cells(seed, 0) {
			res, err := tracedCell(spec, tr, lc, chk, true)
			if err != nil {
				return 0, nil, err
			}
			keep(res.field)
		}
		return time.Since(t0), field, nil
	}
	t, err := w.execSweep(seed, 0, tr)
	chk.cells("traced", 0, t.cells, err)
	if err != nil {
		return 0, nil, err
	}
	for _, spec := range w.cells(seed, 0) {
		if !strings.HasSuffix(spec.key, "|0") {
			continue
		}
		res, err := tracedCell(spec, tr, lc, chk, false)
		if err != nil {
			return 0, nil, err
		}
		keep(res.field)
	}
	return t.wall, field, nil
}

// tracedCell runs one cell through the traced stack under a "cell" span and
// checks its digest against the untraced execution's. Sweep cells compare
// without MAC counters, as their ledger digests do.
func tracedCell(spec cellSpec, tr *Trace, lc *layerCounts, chk *checker, withMAC bool) (stackResult, error) {
	id := tr.Begin("cell")
	res, err := runStack(spec.cfg, tr, lc)
	tr.End(id)
	chk.attempted++
	if err != nil {
		chk.failed++
		return res, fmt.Errorf("traced %s: %w", spec.key, err)
	}
	if err := checkSim(res.metrics, res.events, spec.cfg.Failures != nil); err != nil {
		chk.failed++
		fmt.Fprintf(chk.out, "FAIL traced stack %s: %v\n", spec.key, err)
	}
	st := res.mac
	if !withMAC {
		st = mac.Stats{}
	}
	chk.match("traced stack", 0, spec.key, simDigest(res.metrics, st, res.sent, res.events))
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
