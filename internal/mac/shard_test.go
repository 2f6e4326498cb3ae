package mac

import (
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/topology"
)

// shardedPair builds a two-strip sharded MAC: a 160x40 field with range 40
// (strip border at x=80), nodes 0/1 on shard 0 and node 2 on shard 1, with
// 1<->2 the only cross-border link in range. Returns the group and the two
// per-shard networks, fully wired for mail dispatch.
func shardedPair(t *testing.T) (*sim.ShardGroup, [2]*Network, []uint8) {
	t.Helper()
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 160, MaxY: 40}
	pts := []geom.Point{
		{X: 40, Y: 20}, // node 0, shard 0 (neighbor of 1 only)
		{X: 70, Y: 20}, // node 1, shard 0
		{X: 90, Y: 20}, // node 2, shard 1; 20 m from node 1, across the border
	}
	field, err := topology.FromPositions(area, 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := topology.ShardStrips(field, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint8{0, 0, 1}; owner[0] != want[0] || owner[1] != want[1] || owner[2] != want[2] {
		t.Fatalf("owner table = %v, want %v", owner, want)
	}
	model := energy.PaperModel()
	params := DefaultParams()
	g := sim.NewShardGroup(1, 2, MinFrameAirtime(model, params))
	var nets [2]*Network
	for i := 0; i < 2; i++ {
		fld := field
		if i > 0 {
			fld = field.Clone()
		}
		n, err := NewSharded(g.Shard(i), fld, model, params, owner)
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = n
		g.Shard(i).SetMailHandler(func(m sim.Mail) {
			n.DeliverRemote(m.Data.(RemoteRx))
		})
	}
	return g, nets, owner
}

// TestShardedBroadcastCrossesBorder: a broadcast on shard 0 reaches both the
// local neighbor and the cross-border receiver on shard 1, which also pays
// the reception energy on its own shard.
func TestShardedBroadcastCrossesBorder(t *testing.T) {
	g, nets, _ := shardedPair(t)
	var local, remote []topology.NodeID
	nets[0].SetReceiver(0, func(from topology.NodeID, f Frame) { local = append(local, from) })
	nets[1].SetReceiver(2, func(from topology.NodeID, f Frame) { remote = append(remote, from) })
	g.Shard(0).Kernel().At(0, func() {
		if err := nets[0].Broadcast(1, Frame{Bytes: 100, Payload: "hello"}); err != nil {
			t.Error(err)
		}
	})
	g.Run(sim.Time(time.Second))
	if len(local) != 1 || local[0] != 1 {
		t.Errorf("local receiver heard %v, want [1]", local)
	}
	if len(remote) != 1 || remote[0] != 1 {
		t.Errorf("cross-border receiver heard %v, want [1]", remote)
	}
	if st := g.Stats(); st.Mails == 0 {
		t.Error("no cross-shard mail flowed for a border broadcast")
	} else if st.Clamped != 0 {
		t.Errorf("Clamped = %d: frame airtime fell below the declared lookahead", st.Clamped)
	}
	if rx := nets[1].Meter(2).RxJoules(); rx <= 0 {
		t.Error("cross-border receiver paid no reception energy on its own shard")
	}
	if rx := nets[0].Meter(2).RxJoules(); rx != 0 {
		t.Errorf("sending shard charged the remote node %g J; the owner shard holds that meter", rx)
	}
}

// TestShardedMailPerDestinationShard: a frame's cross-border receivers on
// one shard share a single mail, and each is served in the sender's
// neighbor order.
func TestShardedMailPerDestinationShard(t *testing.T) {
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 160, MaxY: 40}
	pts := []geom.Point{
		{X: 70, Y: 20}, // node 0, shard 0: the sender
		{X: 95, Y: 35}, // nodes 1-3, shard 1, all within range of node 0
		{X: 85, Y: 5},
		{X: 90, Y: 20},
	}
	field, err := topology.FromPositions(area, 40, pts)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := topology.ShardStrips(field, 2)
	if err != nil {
		t.Fatal(err)
	}
	model := energy.PaperModel()
	params := DefaultParams()
	g := sim.NewShardGroup(1, 2, MinFrameAirtime(model, params))
	var nets [2]*Network
	for i := 0; i < 2; i++ {
		fld := field
		if i > 0 {
			fld = field.Clone()
		}
		n, err := NewSharded(g.Shard(i), fld, model, params, owner)
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = n
		g.Shard(i).SetMailHandler(func(m sim.Mail) { n.DeliverRemote(m.Data.(RemoteRx)) })
	}
	var heard []topology.NodeID
	for id := topology.NodeID(1); id <= 3; id++ {
		id := id
		nets[1].SetReceiver(id, func(from topology.NodeID, f Frame) { heard = append(heard, id) })
	}
	g.Shard(0).Kernel().At(0, func() {
		if err := nets[0].Broadcast(0, Frame{Bytes: 100}); err != nil {
			t.Error(err)
		}
	})
	g.Run(sim.Time(time.Second))

	var want []topology.NodeID
	for _, nb := range field.Neighbors(0) {
		if owner[nb] == 1 {
			want = append(want, nb)
		}
	}
	if len(want) != 3 {
		t.Fatalf("fixture: node 0 has cross-border neighbors %v, want three", want)
	}
	if len(heard) != 3 || heard[0] != want[0] || heard[1] != want[1] || heard[2] != want[2] {
		t.Errorf("cross-border receivers heard in order %v, want neighbor order %v", heard, want)
	}
	if st := g.Stats(); st.Mails != 1 {
		t.Errorf("Mails = %d, want 1 (one per destination shard per frame)", st.Mails)
	}
	if rm := nets[0].Stats().RemoteMails; rm != 3 {
		t.Errorf("RemoteMails = %d, want 3 (one per cross-border reception)", rm)
	}
}

// TestShardedUnicastAckRoundTrip: a cross-border unicast completes through a
// genuine remote ACK — delivered once, no timeout, sender sees success.
func TestShardedUnicastAckRoundTrip(t *testing.T) {
	g, nets, _ := shardedPair(t)
	var got []string
	nets[1].SetReceiver(2, func(from topology.NodeID, f Frame) {
		got = append(got, f.Payload.(string))
	})
	acked := false
	nets[0].SetUnicastOutcomeHook(func(from, to topology.NodeID, f Frame, ok bool, retries int) {
		if from == 1 && to == 2 && ok {
			acked = true
		}
	})
	g.Shard(0).Kernel().At(0, func() {
		if err := nets[0].Unicast(1, 2, Frame{Bytes: 64, Payload: "data"}); err != nil {
			t.Error(err)
		}
	})
	g.Run(sim.Time(time.Second))
	if len(got) != 1 || got[0] != "data" {
		t.Fatalf("destination received %v, want exactly one \"data\"", got)
	}
	if !acked {
		t.Error("sender never saw the unicast succeed")
	}
	s0, s1 := nets[0].Stats(), nets[1].Stats()
	if s0.AcksMissing != 0 {
		t.Errorf("AcksMissing = %d on the sending shard, want 0", s0.AcksMissing)
	}
	if s0.Retries != 0 {
		t.Errorf("Retries = %d, want 0 (clean channel)", s0.Retries)
	}
	if s1.AckTx != 1 {
		t.Errorf("owning shard transmitted %d ACKs, want 1", s1.AckTx)
	}
	if s0.RemoteMails == 0 || s1.RemoteMails == 0 {
		t.Errorf("RemoteMails = %d/%d, want both nonzero (data out, ACK back)", s0.RemoteMails, s1.RemoteMails)
	}
}

// TestShardedRejectsRTSCTS: the sharded MAC refuses the RTS/CTS handshake,
// whose NAV coupling has no mailbox form.
func TestShardedRejectsRTSCTS(t *testing.T) {
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 160, MaxY: 40}
	field, err := topology.FromPositions(area, 40, []geom.Point{{X: 40, Y: 20}, {X: 120, Y: 20}})
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.UseRTSCTS = true
	g := sim.NewShardGroup(1, 2, MinFrameAirtime(energy.PaperModel(), params))
	if _, err := NewSharded(g.Shard(0), field, energy.PaperModel(), params, []uint8{0, 1}); err == nil {
		t.Fatal("NewSharded accepted RTS/CTS")
	}
}

// TestShardedOwnerTableMismatch: an owner table sized for a different field
// is rejected.
func TestShardedOwnerTableMismatch(t *testing.T) {
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 160, MaxY: 40}
	field, err := topology.FromPositions(area, 40, []geom.Point{{X: 40, Y: 20}, {X: 120, Y: 20}})
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewShardGroup(1, 2, MinFrameAirtime(energy.PaperModel(), DefaultParams()))
	if _, err := NewSharded(g.Shard(0), field, energy.PaperModel(), DefaultParams(), []uint8{0}); err == nil {
		t.Fatal("NewSharded accepted a short owner table")
	}
}
