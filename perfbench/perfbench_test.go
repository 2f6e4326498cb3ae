package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
)

func smallConfig(seed int64, failures bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Nodes = 100
	cfg.Duration = 30 * time.Second
	if failures {
		fc := failure.DefaultConfig()
		cfg.Failures = &fc
	}
	return cfg
}

// TestDigestStable checks the output check itself: a same-seed repeat
// reproduces core.Run's digest, the traced stack reproduces it too, and a
// different seed changes it.
func TestDigestStable(t *testing.T) {
	for _, failures := range []bool{false, true} {
		spec := cellSpec{key: "cell", cfg: smallConfig(7, failures)}
		a, b := runCore(spec), runCore(spec)
		if a.err != nil || b.err != nil {
			t.Fatalf("failures=%v: core.Run: %v / %v", failures, a.err, b.err)
		}
		if a.digest != b.digest {
			t.Errorf("failures=%v: same-seed digests differ: %s vs %s", failures, a.digest, b.digest)
		}
		res, err := runStack(spec.cfg, NewTrace(), &layerCounts{})
		if err != nil {
			t.Fatalf("failures=%v: traced stack: %v", failures, err)
		}
		if d := simDigest(res.metrics, res.mac, res.sent, res.events); d != a.digest {
			t.Errorf("failures=%v: traced stack digest %s, core.Run gave %s", failures, d, a.digest)
		}
		spec.cfg.Seed++
		if c := runCore(spec); c.digest == a.digest {
			t.Errorf("failures=%v: seeds %d and %d share digest %s", failures, spec.cfg.Seed-1, spec.cfg.Seed, a.digest)
		}
	}
}

// TestSelfTime checks that a span's self time is its duration minus the
// union of its explicit children's intervals, clipped to it, minus its
// folded children's summed time; grandchildren count only for their parent.
func TestSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "root", Parent: -1, Start: 0, End: 10},
		{Name: "a", Parent: 0, Start: 1, End: 3},
		{Name: "b", Parent: 0, Start: 2, End: 5},  // overlaps a: [1,5] covered once
		{Name: "c", Parent: 0, Start: 8, End: 12}, // clipped to [8,10]
		{Name: "loop", Parent: 0, Folded: true, Busy: 1, Count: 4},
		{Name: "grandchild", Parent: 1, Start: 1, End: 2},
	}
	self := selfTimes(spans)
	want := []time.Duration{10 - 4 - 2 - 1, 2 - 1, 3, 4, 1, 1}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	for _, s := range summarize(spans) {
		if s.Name == "loop" && (s.Count != 4 || s.Total != 1 || s.Self != 1) {
			t.Errorf("folded roll-up = %+v", s)
		}
	}
}

// TestPercentileRule checks the nearest-rank percentile and the count of
// samples beyond it that the ten-sample rule reads.
func TestPercentileRule(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: percentile must sort
		}
		return out
	}
	for _, tc := range []struct {
		n      int
		v      float64
		beyond int
		meets  bool
	}{
		{100, 90, 10, true},
		{99, 90, 9, false},
		{112, 101, 11, true},
		{5, 5, 0, false},
	} {
		v, beyond := percentile(xs(tc.n), 90)
		if v != tc.v || beyond != tc.beyond || (beyond >= minTail) != tc.meets {
			t.Errorf("p90 of %d samples = %v with %d beyond, want %v with %d (rule met: %v)",
				tc.n, v, beyond, tc.v, tc.beyond, tc.meets)
		}
	}
	// Per-execution p90s are 3, 30 and 4, with none beyond them; their
	// median is 4, so one slow execution does not set it.
	v, beyond := execPercentile([][]float64{{1, 2, 3}, {30, 10}, {4, 1, 2, 3}}, 90)
	if v != 4 || beyond != 0 {
		t.Errorf("execPercentile = %v with %d beyond, want 4 with 0", v, beyond)
	}
	if v, _ := execPercentile([][]float64{xs(112), xs(112), xs(100)}, 90); v != 101 {
		t.Errorf("execPercentile of three sweeps = %v, want 101", v)
	}
	if m := mean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("mean = %v", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the workloads
// and metrics the program reports, with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		got  []metric
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if w := c.want[i]; m != (metric{w.name, w.unit, w.better}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", c.kind, i, m, w)
			}
		}
	}
}

// TestProfileAttribution decodes a real CPU profile of a simulation and
// checks that every sample lands in exactly one layer and that the event
// loop's layers each show up.
func TestProfileAttribution(t *testing.T) {
	cfg := smallConfig(3, false)
	cfg.Nodes = 350
	cfg.Duration = 160 * time.Second
	cfg.Workload.Sinks = 5
	var runErr error
	prof, err := profiled(func() { _, runErr = core.Run(cfg) })
	if err != nil || runErr != nil {
		t.Fatalf("profile: %v, run: %v", err, runErr)
	}
	shares, total, _ := prof.attribute("")
	if total == 0 {
		t.Skip("no CPU samples taken")
	}
	t.Logf("%d samples: %v", total, shares)
	var sum int64
	for _, n := range shares {
		sum += n
	}
	if sum != total {
		t.Errorf("shares sum to %d of %d samples", sum, total)
	}
	for _, l := range []string{"sim", "mac", "diffusion"} {
		if shares[l] == 0 || shares[l] < shares["other"] {
			t.Errorf("%s holds %d samples, other %d: %v", l, shares[l], shares["other"], shares)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/mac.(*Network).finishReception":     "mac",
		"repro/internal/sim.(*Kernel).siftDown":             "sim",
		"repro/internal/core.Strategy.Truncate":             "strategy",
		"repro/internal/setcover.Greedy[...]":               "strategy",
		"repro/internal/core.Run":                           "other",
		"repro/internal/trace.(*Recorder).Record":           "obs",
		"repro/internal/msg.Item.Key":                       "",
		"runtime.mallocgc":                                  "",
		"main.run":                                          "other",
		"repro/internal/diffusion.(*node).repairPass.func1": "diffusion",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestHostProbe(t *testing.T) {
	p, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	if s := p.time(); !(s > 0) {
		t.Errorf("probe took %v s", s)
	}
	if err := p.close(); err != nil {
		t.Error(err)
	}
}
