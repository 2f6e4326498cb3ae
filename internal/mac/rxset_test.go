package mac

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/topology"
)

// inFlight returns the transmissions whose end of airtime is pending, in
// firing order.
func inFlight(k *sim.Kernel) []*transmission {
	var out []*transmission
	for _, ev := range k.PendingEvents() {
		if tx, ok := ev.Runner.(*transmission); ok {
			out = append(out, tx)
		}
	}
	return out
}

// randomField scatters nodes uniformly over a side×side square with a 40 m
// radio range.
func randomField(t *testing.T, rng *rand.Rand, nodes int, side float64) *topology.Field {
	t.Helper()
	pts := make([]geom.Point, nodes)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	f, err := topology.FromPositions(geom.Square(0, 0, side), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRxSetBeginOrderAndSlots(t *testing.T) {
	// Contended broadcasts and unicasts on a dense static field with some
	// receivers off. After every event, each in-flight frame's receiver set
	// must list the sender's powered-on neighbors in neighbor-list order,
	// every audible entry must point at its node's rxHeard entry and every
	// rxHeard entry must be audible at that slot, and the destination slot
	// must name the unicast destination whenever it heard the frame.
	const nodes = 40
	rng := rand.New(rand.NewSource(5))
	f := randomField(t, rng, nodes, 120)
	k := sim.NewKernel(5)
	n, err := New(k, f, energy.PaperModel(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []topology.NodeID{3, 17, 29} {
		n.SetOn(id, false)
	}
	for round := 0; round < 20; round++ {
		for s := 0; s < 6; s++ {
			src := topology.NodeID(rng.Intn(nodes))
			if !n.On(src) {
				continue
			}
			f := Frame{Bytes: 64 + rng.Intn(200), Payload: round}
			if nbs := n.field.Neighbors(src); len(nbs) > 0 && rng.Intn(2) == 0 {
				_ = n.Unicast(src, nbs[rng.Intn(len(nbs))], f)
			} else {
				_ = n.Broadcast(src, f)
			}
		}
		for k.Step() {
			heard := 0
			for _, tx := range inFlight(k) {
				var want []topology.NodeID
				for _, nb := range n.field.Neighbors(tx.from) {
					if n.On(nb) {
						want = append(want, nb)
					}
				}
				if len(tx.recv) != len(want) {
					t.Fatalf("round %d: tx from %d has %d receivers, %d on-neighbors", round, tx.from, len(tx.recv), len(want))
				}
				wantSlot := int32(-1)
				for i, e := range tx.recv {
					if e.id != want[i] {
						t.Fatalf("round %d: tx from %d slot %d holds %d, neighbor order says %d", round, tx.from, i, e.id, want[i])
					}
					if e.flags&rxHeard == 0 {
						t.Fatalf("round %d: in-flight tx from %d slot %d lost rxHeard", round, tx.from, i)
					}
					heard++
					found := false
					for _, a := range n.nodes[e.id].audible {
						if a.tx == tx {
							found = a.slot == int32(i)
						}
					}
					if !found {
						t.Fatalf("round %d: node %d heard tx from %d at slot %d but is not audible there", round, e.id, tx.from, i)
					}
					if e.id == tx.to {
						wantSlot = int32(i)
					}
				}
				if tx.toSlot != wantSlot {
					t.Fatalf("round %d: tx %d->%d destination slot %d, want %d", round, tx.from, tx.to, tx.toSlot, wantSlot)
				}
			}
			audible := 0
			for i := range n.nodes {
				for _, a := range n.nodes[i].audible {
					e := a.tx.recv[a.slot]
					if e.id != topology.NodeID(i) || e.flags&rxHeard == 0 {
						t.Fatalf("round %d: node %d audible slot %d holds %+v", round, i, a.slot, e)
					}
					audible++
				}
			}
			if audible != heard {
				t.Fatalf("round %d: %d audible entries, %d rxHeard entries", round, audible, heard)
			}
		}
	}
}

func TestEndSettlesNeighborsThenLeftoversByID(t *testing.T) {
	// Differential check of end()'s settle order on a mobile field, with
	// nodes moving while frames are on the air. Every settled receiver of a
	// broadcast data frame reports exactly once, as a delivery or a drop,
	// so the report sequence of one end-of-airtime event is its settle
	// order. The reference: the receivers in range at airtime start that
	// are still live neighbors, in the sender's neighbor-list order, then
	// the rest ascending by ID.
	const nodes = 35
	rng := rand.New(rand.NewSource(23))
	f := randomField(t, rng, nodes, 130)
	k := sim.NewKernel(23)
	n, err := New(k, f, energy.PaperModel(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var got []topology.NodeID
	for i := 0; i < nodes; i++ {
		id := topology.NodeID(i)
		n.SetReceiver(id, func(topology.NodeID, Frame) { got = append(got, id) })
	}
	n.SetDropHook(func(_, to topology.NodeID, _ Frame, _ RxDropReason) { got = append(got, to) })
	move := func() {
		id := topology.NodeID(rng.Intn(nodes))
		n.field.MoveNode(id, geom.Point{X: rng.Float64() * 130, Y: rng.Float64() * 130})
	}
	startSet := map[*transmission]map[topology.NodeID]bool{}
	leftovers := 0
	for round := 0; round < 40; round++ {
		for s := 0; s < 5; s++ {
			_ = n.Broadcast(topology.NodeID(rng.Intn(nodes)), Frame{Bytes: 300, Payload: round})
		}
		for {
			for _, tx := range inFlight(k) {
				if _, ok := startSet[tx]; !ok {
					// Pinned on the step that put tx on the air: everyone
					// in range of the sender at that instant.
					in := map[topology.NodeID]bool{}
					for j := 0; j < nodes; j++ {
						if id := topology.NodeID(j); id != tx.from && n.field.InRange(tx.from, id) {
							in[id] = true
						}
					}
					startSet[tx] = in
				}
			}
			if rng.Intn(3) == 0 {
				move()
			}
			evs := k.PendingEvents()
			if len(evs) == 0 {
				break
			}
			var want []topology.NodeID
			tx, ending := evs[0].Runner.(*transmission)
			if ending {
				in := startSet[tx]
				delete(startSet, tx)
				live := map[topology.NodeID]bool{}
				for _, nb := range n.field.Neighbors(tx.from) {
					if in[nb] {
						want = append(want, nb)
						live[nb] = true
					}
				}
				for j := 0; j < nodes; j++ {
					if id := topology.NodeID(j); in[id] && !live[id] {
						want = append(want, id)
						leftovers++
					}
				}
			}
			got = got[:0]
			k.Step()
			if len(got) != len(want) {
				t.Fatalf("round %d: event settled %v, reference %v", round, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d: tx from %d settled %v, reference %v", round, tx.from, got, want)
				}
			}
		}
	}
	if leftovers == 0 {
		t.Fatal("no receiver moved out of range mid-frame; the leftover path went untested")
	}
}

// clusterNet builds a field with an 8-node cluster (everyone in range of
// everyone) plus `padding` far-away isolated nodes that only inflate the
// field size.
func clusterNet(t *testing.T, padding int) (*sim.Kernel, *Network) {
	t.Helper()
	var pts []geom.Point
	for i := 0; i < 8; i++ {
		pts = append(pts, geom.Point{X: float64(i) * 4, Y: 0})
	}
	for i := 0; i < padding; i++ {
		// One isolated node per far row: out of range of the cluster and of
		// each other, so the degree everywhere stays fixed as N grows.
		pts = append(pts, geom.Point{X: 900, Y: 200 + float64(i)*90})
	}
	f, err := topology.FromPositions(geom.Square(0, 0, 100000), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(7)
	n, err := New(k, f, energy.PaperModel(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return k, n
}

func TestTransmissionFootprintDegreeBounded(t *testing.T) {
	// The pooled transmission's receiver set must size with radio degree,
	// not field size: the same 8-node cluster embedded in a 16-node and a
	// 64-node field must leave identical per-transmission capacity behind.
	footprint := func(padding int) int {
		k, n := clusterNet(t, padding)
		for i := 0; i < 8; i++ {
			if err := n.Broadcast(topology.NodeID(i), Frame{Bytes: 64, Payload: i}); err != nil {
				t.Fatal(err)
			}
		}
		k.Run(5 * time.Second)
		if len(n.txFree) == 0 {
			t.Fatal("no pooled transmissions after the run")
		}
		max := 0
		for _, tx := range n.txFree {
			if len(tx.recv) != 0 {
				t.Fatalf("pooled transmission retains %d receiver entries", len(tx.recv))
			}
			if c := cap(tx.recv); c > max {
				max = c
			}
		}
		return max
	}
	small, large := footprint(8), footprint(56)
	if small != large {
		t.Fatalf("per-transmission receiver capacity grew with field size: %d entries at 16 nodes, %d at 64", small, large)
	}
	if small == 0 || small > 8 {
		t.Fatalf("receiver capacity %d, want within the cluster degree (1..8)", small)
	}
}

func TestReceiverSetMatchesInRangeOracle(t *testing.T) {
	// Mobility churn with one frame in flight at a time: every broadcast
	// must deliver to exactly the brute-force InRange set snapshotted
	// before the frame goes on air — including when a third node moves
	// mid-airtime (the receiver set was pinned at airtime start).
	const nodes = 30
	rng := rand.New(rand.NewSource(99))
	var pts []geom.Point
	for i := 0; i < nodes; i++ {
		pts = append(pts, geom.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200})
	}
	f, err := topology.FromPositions(geom.Square(0, 0, 200), 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(11)
	n, err := New(k, f, energy.PaperModel(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]capture, nodes)
	for i := 0; i < nodes; i++ {
		n.SetReceiver(topology.NodeID(i), caps[i].receiver(k))
	}
	for iter := 0; iter < 60; iter++ {
		// Shuffle somebody, then snapshot the oracle before transmitting.
		mover := topology.NodeID(rng.Intn(nodes))
		n.field.MoveNode(mover, geom.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200})
		src := topology.NodeID(rng.Intn(nodes))
		oracle := map[topology.NodeID]bool{}
		for j := 0; j < nodes; j++ {
			id := topology.NodeID(j)
			if id != src && n.field.InRange(src, id) {
				oracle[id] = true
			}
		}
		before := make([]int, nodes)
		for i := range caps {
			before[i] = len(caps[i].from)
		}
		if err := n.Broadcast(src, Frame{Bytes: 64, Payload: iter}); err != nil {
			t.Fatal(err)
		}
		stepUntilOnAir(t, k, n, int(src))
		// A mid-airtime move must not change this frame's receiver set.
		if late := topology.NodeID(rng.Intn(nodes)); late != src {
			n.field.MoveNode(late, geom.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200})
		}
		k.Run(k.Now() + time.Second) // horizon is absolute: drain this frame
		for j := 0; j < nodes; j++ {
			got := len(caps[j].from) - before[j]
			want := 0
			if oracle[topology.NodeID(j)] {
				want = 1
			}
			if got != want {
				t.Fatalf("iter %d: node %d received %d copies of src %d's frame, oracle says %d",
					iter, j, got, src, want)
			}
		}
	}
}
