package diffusion

import (
	"testing"
	"time"

	"repro/internal/mac"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topology"
)

// housekeepingNode builds a three-node line (source 0, relay 1, sink 2) and
// starts only node id's housekeeping loops, so the kernel holds nothing but
// that node's repair, truncation and prune timers.
func housekeepingNode(t *testing.T, p Params, id topology.NodeID) (*sim.Kernel, *mac.Network, *node) {
	t.Helper()
	k, net, f := testNet(t, 1, linePoints(3))
	rt, err := New(k, net, f, p, firstCopyStrategy{}, Roles{
		Sinks:   []topology.NodeID{2},
		Sources: []topology.NodeID{0},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := rt.Node(id)
	n.startHousekeeping()
	return k, net, n
}

// loopTicks returns the pending deadlines of n's timers of the given kind.
func loopTicks(k *sim.Kernel, n *node, kind timerKind) []time.Duration {
	var out []time.Duration
	for _, pe := range k.PendingEvents() {
		if tm, ok := pe.Runner.(*nodeTimer); ok && tm.n == n && tm.kind == kind {
			out = append(out, pe.At)
		}
	}
	return out
}

// wantTick asserts exactly one pending tick of kind, at want.
func wantTick(t *testing.T, k *sim.Kernel, n *node, kind timerKind, want time.Duration) {
	t.Helper()
	if got := loopTicks(k, n, kind); len(got) != 1 || got[0] != want {
		t.Fatalf("at %v: pending kind-%d ticks %v, want [%v]", k.Now(), kind, got, want)
	}
}

func TestRepairLoopIdlesOffTreeAndWakesOnPhase(t *testing.T) {
	k, _, n := housekeepingNode(t, DefaultParams(), 1)
	first := n.repairNext
	wantTick(t, k, n, tkRepair, first)

	// The first tick finds no data gradient: the loop stops re-arming.
	k.Run(first)
	if !n.repairIdle || len(loopTicks(k, n, tkRepair)) != 0 {
		t.Fatalf("off-tree repair loop still armed after its first tick: idle=%v ticks=%v",
			n.repairIdle, loopTicks(k, n, tkRepair))
	}

	// Reinforcement wakes it on the original phase, never at the wake time.
	k.Run(first + 2500*time.Millisecond)
	st := n.state(0)
	n.setGradient(st, 2, gradData)
	wantTick(t, k, n, tkRepair, first+3*time.Second)
	if n.repairIdle {
		t.Fatal("repair loop still marked idle after waking")
	}
	// A second reinforcement while awake arms nothing extra.
	n.setGradient(st, 2, gradData)
	wantTick(t, k, n, tkRepair, first+3*time.Second)

	// While the gradient lives the loop keeps its 1 s cadence.
	k.Run(first + 3*time.Second)
	wantTick(t, k, n, tkRepair, first+4*time.Second)

	// Once the gradient expires the next tick idles again.
	expiry := first + 2500*time.Millisecond + DefaultParams().DataGradientTimeout
	k.Run(expiry + time.Second)
	if !n.repairIdle || len(loopTicks(k, n, tkRepair)) != 0 {
		t.Fatalf("repair loop armed after the data gradient expired: ticks=%v", loopTicks(k, n, tkRepair))
	}

	// An interest flood refreshing the expired (not yet pruned) data
	// gradient revives it, and with it the watchdog.
	n.setGradient(st, 2, gradExploratory)
	if !n.hasDataGradient(st) {
		t.Fatal("refreshed data gradient not live")
	}
	next := loopTicks(k, n, tkRepair)
	if len(next) != 1 || (next[0]-first)%time.Second != 0 || next[0] <= k.Now() {
		t.Fatalf("revived loop ticks %v, want one future tick on phase %v mod 1s", next, first)
	}
}

// TestRepairLoopIdlesWhileOffAndWakesOnPhase: an off node without tree
// state has nothing to watch, so its repair loop idles instead of firing
// no-op ticks; once it is back on and reinforced the loop wakes on its
// original phase.
func TestRepairLoopIdlesWhileOffAndWakesOnPhase(t *testing.T) {
	k, net, n := housekeepingNode(t, DefaultParams(), 1)
	first := n.repairNext
	net.SetOn(1, false)
	k.Run(first)
	if !n.repairIdle || len(loopTicks(k, n, tkRepair)) != 0 {
		t.Fatalf("off, off-tree repair loop still armed: idle=%v ticks=%v",
			n.repairIdle, loopTicks(k, n, tkRepair))
	}
	k.Run(first + 3*time.Second)
	if ticks := loopTicks(k, n, tkRepair); len(ticks) != 0 {
		t.Fatalf("idle repair loop re-armed while off: %v", ticks)
	}

	net.SetOn(1, true)
	k.Run(first + 4500*time.Millisecond)
	n.setGradient(n.state(0), 2, gradData)
	wantTick(t, k, n, tkRepair, first+5*time.Second)
	if n.repairIdle {
		t.Fatal("repair loop still marked idle after waking")
	}
}

func TestRepairLoopNeverIdlesOnSinkOrWithHealing(t *testing.T) {
	healing := DefaultParams()
	healing.Repair = DefaultRepairParams()
	healing.Repair.Enabled = true
	for _, c := range []struct {
		name string
		p    Params
		id   topology.NodeID
	}{
		{"sink", DefaultParams(), 2},
		{"healing", healing, 1},
	} {
		k, _, n := housekeepingNode(t, c.p, c.id)
		first := n.repairNext
		k.Run(first + 5*time.Second)
		if n.repairIdle {
			t.Fatalf("%s: repair loop went idle", c.name)
		}
		wantTick(t, k, n, tkRepair, first+6*time.Second)
	}
}

func TestTruncationLoopWakesOnFirstWindowAppend(t *testing.T) {
	p := DefaultParams()
	tn := p.NegReinforceWindow
	k, _, n := housekeepingNode(t, p, 1)
	first := n.truncNext
	wantTick(t, k, n, tkTruncation, first)

	k.Run(first)
	if !n.truncIdle || len(loopTicks(k, n, tkTruncation)) != 0 {
		t.Fatal("truncation loop with empty windows still armed after its first tick")
	}

	data := msg.Message{
		Kind: msg.KindData, Interest: 0, Origin: 0,
		Items: []msg.Item{{Source: 0, Seq: 1}}, W: 1, Bytes: msg.EventBytes,
	}
	k.Run(first + 2*tn + tn/3)
	n.onData(0, data)
	wantTick(t, k, n, tkTruncation, first+3*tn)
	data.Items = []msg.Item{{Source: 0, Seq: 2}}
	n.onData(0, data)
	wantTick(t, k, n, tkTruncation, first+3*tn)

	// The woken pass drains the window and re-arms; the one after finds
	// nothing and idles.
	k.Run(first + 3*tn)
	if len(n.state(0).window) != 0 {
		t.Fatal("woken truncation pass left the window full")
	}
	wantTick(t, k, n, tkTruncation, first+4*tn)
	k.Run(first + 4*tn)
	if !n.truncIdle || len(loopTicks(k, n, tkTruncation)) != 0 {
		t.Fatal("truncation loop did not idle after draining")
	}
}
