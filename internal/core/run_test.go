package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/chaos"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// quickCfg returns a small, fast configuration for runner tests.
func quickCfg(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Nodes = 80
	cfg.Duration = 30 * time.Second
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name string
		f    func(*Config)
	}{
		{"bad scheme", func(c *Config) { c.Scheme = 0 }},
		{"one node", func(c *Config) { c.Nodes = 1 }},
		{"zero field", func(c *Config) { c.FieldSide = 0 }},
		{"zero range", func(c *Config) { c.Range = 0 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"drain exceeds duration", func(c *Config) { c.DrainTail = c.Duration }},
		{"zero placement tries", func(c *Config) { c.MaxPlacementTries = 0 }},
		{"no sources", func(c *Config) { c.Workload.Sources = 0 }},
		{"bad failure fraction", func(c *Config) { c.Failures = &failure.Config{Fraction: 2, Wave: time.Second} }},
		{"bad diffusion", func(c *Config) { c.Diffusion.DataPeriod = 0 }},
		{"bad mac", func(c *Config) { c.MAC.CWMin = 0 }},
		{"bad energy", func(c *Config) { c.Energy.BitRate = 0 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultConfig()
			m.f(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

// The sharded kernel and mid-run checkpointing are gone; their Config
// fields survive only as stubs. The tests below pin that setting one is an
// error naming the removal in every configuration, never a silent serial
// run, and that Shards 0 and 1 (both the serial path) stay valid.

// TestShardsOneIsSerial: Shards 1 is accepted and is the serial run, so its
// output is identical to Shards 0 and every determinism golden stands.
func TestShardsOneIsSerial(t *testing.T) {
	cfg := quickCfg(SchemeGreedy)
	cfg.Seed = 7
	zero, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 1
	one, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero.Metrics, one.Metrics) || !reflect.DeepEqual(zero.MAC, one.MAC) ||
		!reflect.DeepEqual(zero.Sent, one.Sent) || !reflect.DeepEqual(zero.Trees, one.Trees) ||
		zero.Kernel.Events != one.Kernel.Events {
		t.Fatal("shards=1 output differs from shards=0")
	}
}

// TestShardedCheckpointRejected: a run asking for both removed features
// fails before simulating anything, naming the first of them.
func TestShardedCheckpointRejected(t *testing.T) {
	cfg := quickCfg(SchemeGreedy)
	cfg.Shards = 2
	cfg.CheckpointPath = "run.snap"
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("sharded checkpoint run succeeded, want rejection")
	}
	if !strings.Contains(err.Error(), "sharded kernel was removed") {
		t.Fatalf("rejection does not name the sharding removal: %v", err)
	}
}

// envelopes are the features that once narrowed which runs could shard or
// checkpoint; each is valid on its own in a serial run.
func envelopes() []struct {
	name string
	mut  func(*Config)
} {
	return []struct {
		name string
		mut  func(*Config)
	}{
		{"flooding", func(c *Config) { c.Scheme = SchemeFlooding }},
		{"chaos", func(c *Config) { cc := chaos.DefaultConfig(); c.Chaos = &cc }},
		{"churn", func(c *Config) {
			c.Churn = failure.ChurnConfig{JoinFraction: 0.2, JoinWindow: 10 * time.Second}
		}},
		{"failure waves", func(c *Config) { fc := failure.DefaultConfig(); c.Failures = &fc }},
		{"flight recorder", func(c *Config) { c.FlightPath = "flight.ndjson" }},
		{"battery", func(c *Config) { c.BatteryJ = 1 }},
		{"protocol snapshots", func(c *Config) { c.Telemetry = &obs.Config{SnapshotEvery: time.Second} }},
	}
}

// TestCheckpointEnvelopeRejections: a CheckpointPath is rejected whatever
// else the run enables, while the same run without it is valid.
func TestCheckpointEnvelopeRejections(t *testing.T) {
	type rejection struct {
		name string
		mut  func(*Config)
		want string
	}
	cases := []rejection{
		{"shards", func(c *Config) { c.Shards = 2 }, "sharded kernel was removed"},
		{"non-resumable tracer", func(c *Config) { c.Tracer = trace.NewRecorder(0) }, "checkpointing was removed"},
	}
	for _, e := range envelopes() {
		cases = append(cases, rejection{e.name, e.mut, "checkpointing was removed"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg(SchemeGreedy)
			tc.mut(&cfg)
			if tc.name != "shards" {
				if err := cfg.Validate(); err != nil {
					t.Fatalf("serial run rejected: %v", err)
				}
			}
			cfg.CheckpointPath = "run.snap"
			err := cfg.Validate()
			if err == nil {
				t.Fatal("want rejection, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejection %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestShardedEnvelope: Shards outside 0..1 is rejected whatever else the
// run enables, while the same run at Shards 0 is valid.
func TestShardedEnvelope(t *testing.T) {
	for _, e := range envelopes() {
		cfg := quickCfg(SchemeGreedy)
		e.mut(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: serial run rejected: %v", e.name, err)
		}
		for _, shards := range []int{2, -1} {
			cfg.Shards = shards
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "sharded kernel was removed") {
				t.Errorf("%s, shards %d: Validate returned %v, want an error naming the removal", e.name, shards, err)
			}
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := quickCfg(SchemeGreedy)
	cfg.Seed = 99
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics {
		t.Fatalf("identical configs diverged:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	cfg.Seed = 100
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics == c.Metrics {
		t.Fatal("different seeds produced identical metrics")
	}
}

// TestRunDeterminismWithFailures repeats the determinism contract with the
// failure schedule enabled: wave draws ride the same kernel RNG, so two runs
// of one seed must agree byte for byte.
func TestRunDeterminismWithFailures(t *testing.T) {
	fc := failure.DefaultConfig()
	cfg := quickCfg(SchemeGreedy)
	cfg.Seed = 42
	cfg.Duration = 60 * time.Second
	cfg.Failures = &fc
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("same seed with failures diverged:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	if !reflect.DeepEqual(a.MAC, b.MAC) {
		t.Fatalf("same seed with failures diverged in MAC stats:\n%+v\n%+v", a.MAC, b.MAC)
	}
}

// TestRunDeterminismWithChaos extends the contract to the chaos engine's own
// randomness (link-loss coin flips, crash scheduling): identical seeds must
// yield identical metrics and identical fault injection.
func TestRunDeterminismWithChaos(t *testing.T) {
	cfg := quickCfg(SchemeOpportunistic)
	cfg.Seed = 43
	cfg.Duration = 60 * time.Second
	cfg.Chaos = &chaos.Config{
		Loss:            chaos.LossConfig{Drop: 0.1},
		Amnesia:         chaos.AmnesiaConfig{MeanInterval: 10 * time.Second, Downtime: 2 * time.Second},
		CheckInvariants: true,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("same seed with chaos diverged:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	if a.Chaos.Crashes != b.Chaos.Crashes || a.Chaos.LinkLoss != b.Chaos.LinkLoss {
		t.Fatalf("fault injection diverged: %d/%d crashes, %d/%d losses",
			a.Chaos.Crashes, b.Chaos.Crashes, a.Chaos.LinkLoss, b.Chaos.LinkLoss)
	}
}

func TestRunWithFailures(t *testing.T) {
	fc := failure.DefaultConfig()
	for _, scheme := range []Scheme{SchemeGreedy, SchemeOpportunistic} {
		cfg := quickCfg(scheme)
		cfg.Nodes = 150
		cfg.Duration = 60 * time.Second
		cfg.Failures = &fc
		out, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := out.Metrics
		if m.DeliveredEvents == 0 {
			t.Fatalf("%v: nothing delivered under failures", scheme)
		}
		if m.DeliveryRatio > 1 {
			t.Fatalf("%v: delivery ratio %v > 1", scheme, m.DeliveryRatio)
		}
		// 20% of relays down at all times must hurt, but the protocol
		// should still deliver a decent majority.
		if m.DeliveryRatio < 0.3 {
			t.Fatalf("%v: ratio %.3f suspiciously low even for 20%% failures", scheme, m.DeliveryRatio)
		}
	}
}

func TestRunMultiSink(t *testing.T) {
	cfg := quickCfg(SchemeGreedy)
	cfg.Nodes = 150
	cfg.Workload.Sinks = 3
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Assignment.Sinks) != 3 {
		t.Fatalf("placed %d sinks, want 3", len(out.Assignment.Sinks))
	}
	if out.Metrics.DeliveryRatio <= 0 || out.Metrics.DeliveryRatio > 1 {
		t.Fatalf("delivery ratio %v out of range", out.Metrics.DeliveryRatio)
	}
}

func TestRunRandomPlacement(t *testing.T) {
	cfg := quickCfg(SchemeGreedy)
	cfg.Workload.Placement = workload.PlaceRandom
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics.DeliveredEvents == 0 {
		t.Fatal("nothing delivered with random placement")
	}
}

func TestRunLinearAggregation(t *testing.T) {
	// Linear aggregation sends bigger aggregates: bytes on air must exceed
	// the perfect-aggregation run's.
	perfect := quickCfg(SchemeGreedy)
	outP, err := Run(perfect)
	if err != nil {
		t.Fatal(err)
	}
	linear := quickCfg(SchemeGreedy)
	linear.Diffusion.Agg = agg.Linear{}
	outL, err := Run(linear)
	if err != nil {
		t.Fatal(err)
	}
	if outL.MAC.BytesOnAir <= outP.MAC.BytesOnAir {
		t.Fatalf("linear aggregation put %d bytes on air, perfect %d; expected more",
			outL.MAC.BytesOnAir, outP.MAC.BytesOnAir)
	}
}

func TestRunEndpointsProtectedFromFailure(t *testing.T) {
	// Under heavy failures the interest flood takes time to reach (and
	// activate) the sources, but once active a protected source never stops
	// generating: with 30% of relays down the tail of the run must show
	// sustained generation.
	fc := failure.Config{Fraction: 0.3, Wave: 5 * time.Second}
	cfg := quickCfg(SchemeOpportunistic)
	cfg.Failures = &fc
	cfg.Duration = 40 * time.Second
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At least half the ideal volume: activation may cost a few seconds,
	// but protected sources cannot be killed mid-run.
	ideal := int(float64(cfg.Workload.Sources) * (cfg.Duration - cfg.DrainTail).Seconds() / cfg.Diffusion.DataPeriod.Seconds())
	if out.Metrics.GeneratedEvents < ideal/2 {
		t.Fatalf("generated %d events, want at least %d (protected sources must keep sensing)",
			out.Metrics.GeneratedEvents, ideal/2)
	}
}

func TestRunReportsMACAndSends(t *testing.T) {
	out, err := Run(quickCfg(SchemeGreedy))
	if err != nil {
		t.Fatal(err)
	}
	if out.MAC.DataTx == 0 {
		t.Fatal("MAC stats empty")
	}
	if out.Sent[3] == 0 { // msg.KindData
		t.Fatal("send counters empty")
	}
	if out.Density <= 0 {
		t.Fatal("density not reported")
	}
}

func TestGreedyBeatsOpportunisticAtHighDensity(t *testing.T) {
	// The paper's headline, as a regression guard: at ~350 nodes the greedy
	// scheme must dissipate clearly less communication energy. Averaged
	// over a few seeds to be robust to placement luck.
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	var g, o float64
	const seeds = 3
	for s := int64(0); s < seeds; s++ {
		for _, scheme := range []Scheme{SchemeGreedy, SchemeOpportunistic} {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.Nodes = 300
			cfg.Seed = s
			cfg.Duration = 120 * time.Second
			out, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if scheme == SchemeGreedy {
				g += out.Metrics.AvgCommEnergy
			} else {
				o += out.Metrics.AvgCommEnergy
			}
		}
	}
	if g >= o {
		t.Fatalf("greedy comm energy %.6g not below opportunistic %.6g at high density", g/seeds, o/seeds)
	}
	savings := 100 * (1 - g/o)
	t.Logf("high-density communication-energy savings: %.0f%%", savings)
	if savings < 15 {
		t.Errorf("savings %.0f%% too small; paper reports large high-density savings", savings)
	}
}
