package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestTelemetryDoesNotPerturbRun pins the subsystem's core promise: enabling
// metrics, snapshots, and the drop hook changes nothing about protocol
// outcomes for a fixed seed.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	cfg := quickCfg(SchemeGreedy)
	cfg.Seed = 11
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Telemetry = &obs.Config{SnapshotEvery: 5 * time.Second}
	cfg.Tracer = trace.NewRecorder(64)
	instrumented, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.Metrics, instrumented.Metrics) {
		t.Fatalf("telemetry changed metrics:\nplain: %+v\ninstr: %+v",
			plain.Metrics, instrumented.Metrics)
	}
	if !reflect.DeepEqual(plain.Sent, instrumented.Sent) {
		t.Fatalf("telemetry changed traffic: %v vs %v", plain.Sent, instrumented.Sent)
	}
	if plain.Telemetry != nil {
		t.Fatal("registry snapshot present without Telemetry config")
	}
	if len(instrumented.Telemetry) == 0 {
		t.Fatal("no metrics collected with Telemetry config")
	}
}

func TestTelemetryCountersPopulated(t *testing.T) {
	cfg := quickCfg(SchemeGreedy)
	cfg.Seed = 3
	cfg.Telemetry = &obs.Config{}
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"diffusion_exploratory_floods",
		"diffusion_reinforce_sent",
		"diffusion_setcover_calls",
		"mac_data_tx",
		"mac_delivered",
		"sim_events",
	} {
		if v := obs.Value(out.Telemetry, name); v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if out.Kernel.Events == 0 || out.Kernel.WallTime <= 0 {
		t.Fatalf("kernel stats unfilled: %+v", out.Kernel)
	}
	if out.Kernel.QueueHighWater <= 0 {
		t.Fatalf("queue high water = %d", out.Kernel.QueueHighWater)
	}
	if out.Kernel.EventsPerSec() <= 0 {
		t.Fatalf("events/sec = %v", out.Kernel.EventsPerSec())
	}
}

// TestSnapshotsRecorded checks that a SnapshotSink tracer receives periodic
// per-node state dumps with gradients on at least some nodes.
func TestSnapshotsRecorded(t *testing.T) {
	cfg := quickCfg(SchemeGreedy)
	cfg.Seed = 7
	cfg.Telemetry = &obs.Config{SnapshotEvery: 10 * time.Second}

	sink := &snapshotCollector{}
	cfg.Tracer = sink
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(sink.snaps) == 0 {
		t.Fatal("no snapshots recorded")
	}
	withGrads, onTree := 0, 0
	for _, s := range sink.snaps {
		if len(s.Gradients) > 0 {
			withGrads++
		}
		if s.OnTree {
			onTree++
		}
	}
	if withGrads == 0 || onTree == 0 {
		t.Fatalf("snapshots carry no protocol state: grads=%d tree=%d of %d",
			withGrads, onTree, len(sink.snaps))
	}
}

type snapshotCollector struct {
	events []trace.Event
	snaps  []trace.SnapshotRecord
}

func (c *snapshotCollector) Record(e trace.Event)                  { c.events = append(c.events, e) }
func (c *snapshotCollector) RecordSnapshot(s trace.SnapshotRecord) { c.snaps = append(c.snaps, s) }

var allRxDropReasons = []mac.RxDropReason{mac.RxCollision, mac.RxReceiverOff, mac.RxSenderOff, mac.RxLinkLoss}

// rxDrops returns the greedy scheme's mac_rx_drops count for one reason.
func rxDrops(snap []obs.Metric, r mac.RxDropReason) float64 {
	for _, m := range obs.Find(snap, "mac_rx_drops") {
		if m.Labels == "reason="+r.String()+",scheme=greedy" {
			return m.Value
		}
	}
	return 0
}

// TestDropHookZeroAllocs guards the telemetry-on drop path: once each
// reason's counter exists, a drop is one increment, with no registry lookup
// and no allocation.
func TestDropHookZeroAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	hook := dropHook(sim.NewKernel(1), nil, reg, "greedy")
	f := mac.Frame{Bytes: 64, Payload: msg.Message{Kind: msg.KindData}}
	for _, r := range allRxDropReasons {
		hook(1, 2, f, r)
	}
	const runs = 500
	allocs := testing.AllocsPerRun(runs, func() {
		for _, r := range allRxDropReasons {
			hook(1, 2, f, r)
		}
	})
	if allocs != 0 {
		t.Fatalf("drop hook allocates %.1f times per call batch, want 0", allocs)
	}
	// One priming call, AllocsPerRun's warm-up call, then the measured runs.
	for _, r := range allRxDropReasons {
		if got, want := rxDrops(reg.Snapshot(), r), float64(runs+2); got != want {
			t.Fatalf("mac_rx_drops{reason=%s} = %v, want %v", r, got, want)
		}
	}
}

// dropField runs contended broadcasts and unicasts of protocol messages on
// a dense field with an off receiver, a lossy link filter and senders dying
// mid-frame, reporting every lost reception to the hook newHook builds.
func dropField(t *testing.T, newHook func(*sim.Kernel) mac.DropHook) {
	t.Helper()
	const nodes = 40
	rng := rand.New(rand.NewSource(4))
	pts := make([]geom.Point, nodes)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 120, Y: rng.Float64() * 120}
	}
	f, err := topology.FromPositions(geom.Square(0, 0, 120), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(4)
	n, err := mac.New(k, f, energy.PaperModel(), mac.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	n.SetDropHook(newHook(k))
	kr := k.Rand()
	n.SetLinkFilter(func(_, _ topology.NodeID) bool { return kr.Float64() > 0.1 })
	n.SetOn(5, false)
	for round := 0; round < 10; round++ {
		for i := 0; i < nodes; i++ {
			from := topology.NodeID(i)
			m := mac.Frame{Bytes: 300, Payload: msg.Message{Kind: msg.KindExploratory, Origin: from}}
			if nbs := f.Neighbors(from); i%3 == 0 && len(nbs) > 0 {
				_ = n.Unicast(from, nbs[round%len(nbs)], m)
			} else {
				_ = n.Broadcast(from, m)
			}
		}
	}
	// Kill a few senders mid-frame: a poll every 100 µs catches a node
	// whose transmit count just grew, well inside a 300-byte airtime.
	sent := make([]int, nodes)
	kills := 0
	var poll func()
	poll = func() {
		for i := 10; i < nodes && kills < 6; i += 3 {
			id := topology.NodeID(i)
			if tx := n.Meter(id).TxPackets(); tx > sent[i] && n.On(id) {
				sent[i] = tx
				if tx > 2 {
					n.SetOn(id, false)
					kills++
				}
			}
		}
		if kills < 6 {
			k.Schedule(100*time.Microsecond, poll)
		}
	}
	k.Schedule(0, poll)
	k.Run(5 * time.Second)
}

func TestDropHookCountersMatchPlainHook(t *testing.T) {
	// The cached per-reason counters must count exactly what a plain
	// counting hook sees on the same seed, and the snapshot must carry an
	// entry for exactly the reasons that occurred.
	want := map[mac.RxDropReason]int{}
	dropField(t, func(*sim.Kernel) mac.DropHook {
		return func(_, _ topology.NodeID, _ mac.Frame, r mac.RxDropReason) { want[r]++ }
	})
	reg := obs.NewRegistry()
	dropField(t, func(k *sim.Kernel) mac.DropHook { return dropHook(k, nil, reg, "greedy") })
	snap := reg.Snapshot()
	for _, r := range allRxDropReasons {
		if got := rxDrops(snap, r); got != float64(want[r]) {
			t.Errorf("mac_rx_drops{reason=%s} = %v, plain hook counted %d", r, got, want[r])
		}
	}
	if len(snap) != len(want) {
		t.Errorf("snapshot has %d entries for %d reasons seen: %+v", len(snap), len(want), snap)
	}
	for _, r := range allRxDropReasons {
		if want[r] == 0 {
			t.Errorf("no %s drops; the field no longer exercises every reason", r)
		}
	}
}
