package diffusion

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/topology"
)

// Checkpoint encode/decode for the diffusion runtime (DESIGN.md §12).
//
// Every delayed diffusion action is a pooled *nodeTimer runner, so the
// pending-event walk covers the protocol's entire future; the tables
// (table.go) are sorted-insert slices, so iterating them front to back is
// already the canonical serialization order. Pointer-valued state is encoded
// by reference:
//
//   - interest states are referenced by interest id — within the checkpoint
//     envelope (no amnesia) a state, once created, stays in its node's table.
//   - exploratory entries resolve to (interest, message id) while tabled; an
//     entry the prune pass compacted away while a timer still holds it is
//     emitted into a deduplicated orphan table.
//   - the flush timer handle (pendingBuffer.timer/rec) is not serialized:
//     armed is true exactly when a live tkFlush event is pending, so the
//     restorer rewires the buffer from the event itself (Installed).
//
// The timer free list and the shared scratch workspace are not serialized:
// pooled-versus-fresh allocation is unobservable.

// Runner payload entry-reference tags.
const (
	entryRefNone uint8 = iota
	entryRefTable
	entryRefOrphan
)

// Snapshotter encodes a runtime's checkpoint state. Use one per snapshot:
// first offer every pending runner to EncodeRunner (in firing order), then
// call EncodeState — the orphan entry table is collected during the walk.
type Snapshotter struct {
	rt        *Runtime
	orphans   []*entryState
	orphanIdx map[*entryState]int
}

// NewSnapshotter returns a snapshotter for one checkpoint of rt.
func NewSnapshotter(rt *Runtime) *Snapshotter {
	return &Snapshotter{rt: rt, orphanIdx: make(map[*entryState]int)}
}

// EncodeRunner appends r's payload to w if the diffusion runtime owns it,
// reporting whether it did.
func (s *Snapshotter) EncodeRunner(w *snap.Writer, r sim.Runner) (bool, error) {
	t, ok := r.(*nodeTimer)
	if !ok || t.n == nil || t.n.rt != s.rt {
		return false, nil
	}
	w.U8(uint8(t.kind))
	w.Int(int(t.n.id))
	stIID := -1
	if t.st != nil {
		stIID = int(t.st.id)
	}
	w.Int(stIID)
	s.encodeEntryRef(w, t.n, t.e)
	msg.EncodeMessage(w, t.m)
	w.Int(int(t.iid))
	w.Int(int(t.to))
	w.Int(t.ep)
	return true, nil
}

// encodeEntryRef writes a reference to e: absent, (interest, message id)
// while the owning node's tables still hold it, or a deduplicated
// orphan-table index once pruning dropped it.
func (s *Snapshotter) encodeEntryRef(w *snap.Writer, n *node, e *entryState) {
	if e == nil {
		w.U8(entryRefNone)
		return
	}
	for i := range n.interests.sts {
		st := n.interests.sts[i]
		if st.entries.get(e.ID) == e {
			w.U8(entryRefTable)
			w.Int(int(n.interests.ids[i]))
			w.U64(uint64(e.ID))
			return
		}
	}
	idx, ok := s.orphanIdx[e]
	if !ok {
		idx = len(s.orphans)
		s.orphans = append(s.orphans, e)
		s.orphanIdx[e] = idx
	}
	w.U8(entryRefOrphan)
	w.Int(idx)
}

// EncodeState writes every node's protocol state, the orphan entry table,
// and the runtime-level counters. It must run after every pending runner
// passed through EncodeRunner.
func (s *Snapshotter) EncodeState(w *snap.Writer) error {
	rt := s.rt
	w.Int(len(rt.nodes))
	for i := range rt.nodes {
		n := &rt.nodes[i]
		w.Int(n.seq)
		w.Bool(n.sourceStarted)
		w.Int(n.interestRound)
		w.Int(n.epoch)
		w.I64(int64(n.repairNext))
		w.Bool(n.repairIdle)
		w.I64(int64(n.truncNext))
		w.Bool(n.truncIdle)
		w.U32(uint32(len(n.lq.es)))
		for _, e := range n.lq.es {
			w.Int(int(e.nbr))
			w.F64(e.q)
			w.I64(int64(e.at))
		}
		w.U32(uint32(len(n.retries)))
		for _, rr := range n.retries {
			w.Int(int(rr.to))
			w.Int(int(rr.kind))
			w.Int(int(rr.iid))
			w.U64(uint64(rr.id))
			w.Int(rr.attempts)
			w.I64(int64(rr.at))
		}
		w.U32(uint32(len(n.interests.sts)))
		for j := range n.interests.sts {
			encodeInterestState(w, n.interests.ids[j], n.interests.sts[j])
		}
	}
	w.U32(uint32(len(s.orphans)))
	for _, e := range s.orphans {
		encodeEntryState(w, e)
	}
	kinds := make([]int, 0, len(rt.sent))
	for k := range rt.sent {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	w.U32(uint32(len(kinds)))
	for _, k := range kinds {
		w.Int(k)
		w.Int(rt.sent[msg.Kind(k)])
	}
	w.Int(rt.repair.WatchdogFires)
	w.Int(rt.repair.Reinforces)
	w.Int(rt.repair.Probes)
	w.Int(rt.repair.ProbeReplies)
	w.Int(rt.repair.CtrlRetries)
	w.Int(rt.repair.DataRebuffers)
	w.Int(rt.repair.FallbackBroadcasts)
	encodeCascades(w, rt.ins)
	return nil
}

func encodeInterestState(w *snap.Writer, iid msg.InterestID, st *interestState) {
	w.Int(int(iid))
	w.Int(st.seenRound)
	w.U32(uint32(len(st.grads.es)))
	for _, ge := range st.grads.es {
		w.Int(int(ge.nbr))
		w.Int(int(ge.g.kind))
		w.I64(int64(ge.g.expires))
	}
	w.U32(uint32(len(st.entries.es)))
	for _, e := range st.entries.es {
		encodeEntryState(w, e)
	}
	keys := make([]msg.ItemKey, 0, len(st.dataCache))
	for k := range st.dataCache {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Source != keys[b].Source {
			return keys[a].Source < keys[b].Source
		}
		return keys[a].Seq < keys[b].Seq
	})
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.Int(int(k.Source))
		w.Int(k.Seq)
		w.I64(int64(st.dataCache[k]))
	}
	w.U32(uint32(len(st.pending.contribs)))
	for _, c := range st.pending.contribs {
		w.Int(int(c.from))
		encodeItems(w, c.items)
		w.Int(c.w)
		encodeItems(w, c.newItems)
	}
	w.U32(uint32(len(st.window)))
	for _, a := range st.window {
		w.Int(int(a.From))
		encodeItems(w, a.Items)
		w.Int(a.W)
		encodeItems(w, a.NewItems)
	}
	encodeTimeTable(w, &st.lastDataFrom)
	encodeTimeTable(w, &st.srcSeen)
	w.I64(int64(st.lastNegCascade))
	w.Bool(st.negCascaded)
	w.Bool(st.activated)
	w.I64(int64(st.repairingUntil))
}

func encodeEntryState(w *snap.Writer, e *entryState) {
	w.U64(uint64(e.ID))
	w.Int(int(e.Origin))
	encodeItem(w, e.Item)
	w.U32(uint32(len(e.Copies)))
	for _, c := range e.Copies {
		w.Int(int(c.Nbr))
		w.Int(c.E)
		w.I64(int64(c.Arrival))
	}
	w.Bool(e.HasE)
	w.Int(e.BestE)
	w.Bool(e.HasC)
	w.Int(e.BestC)
	w.Int(int(e.BestCNbr))
	w.Int(int(e.Chosen))
	w.Bool(e.HasChosen)
	w.Bool(e.forwarded)
	w.Bool(e.skeleton)
	w.I64(int64(e.created))
	w.I64(int64(e.chosenAt))
	excl := make([]int, 0, len(e.excluded))
	for id := range e.excluded {
		excl = append(excl, int(id))
	}
	sort.Ints(excl)
	w.U32(uint32(len(excl)))
	for _, id := range excl {
		w.Int(id)
	}
	w.Bool(e.sinkTimer)
	w.I64(int64(e.probedAt))
	w.Bool(e.repairing)
	w.Int(e.fwdC)
	w.Bool(e.hasFwdC)
	w.Int(e.sentC)
	w.Bool(e.hasSentC)
}

func encodeItem(w *snap.Writer, it msg.Item) {
	w.Int(int(it.Source))
	w.Int(it.Seq)
	w.I64(it.GenTime)
	w.U32(uint32(it.Hops))
	w.U32(uint32(it.FanIn))
}

func encodeItems(w *snap.Writer, items []msg.Item) {
	w.U32(uint32(len(items)))
	for _, it := range items {
		encodeItem(w, it)
	}
}

func encodeTimeTable(w *snap.Writer, t *timeTable) {
	w.U32(uint32(len(t.es)))
	for _, e := range t.es {
		w.Int(int(e.id))
		w.I64(int64(e.at))
	}
}

// encodeCascades serializes the per-entry reinforcement chain counters,
// sorted by (interest, message id) so equal maps encode to equal bytes.
func encodeCascades(w *snap.Writer, ins *Instruments) {
	if ins == nil {
		w.U32(0)
		return
	}
	keys := make([]cascadeKey, 0, len(ins.cascades))
	for k := range ins.cascades {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].iid != keys[b].iid {
			return keys[a].iid < keys[b].iid
		}
		return keys[a].id < keys[b].id
	})
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.Int(int(k.iid))
		w.U64(uint64(k.id))
		w.Int(ins.cascades[k])
	}
}

// Restorer decodes a runtime checkpoint into a freshly built Runtime over
// the same (kernel, network, field, params, strategy, roles). Call
// DecodeState first, then DecodeRunner for every diffusion-owned event
// payload in firing order (reporting each installed timer via Installed),
// then FinishRestore.
type Restorer struct {
	rt      *Runtime
	orphans []*entryState
}

// NewRestorer returns a restorer writing into rt. The runtime must not have
// been started: restore replaces Start.
func NewRestorer(rt *Runtime) *Restorer {
	return &Restorer{rt: rt}
}

// DecodeState overwrites every node's protocol state from the snapshot.
func (d *Restorer) DecodeState(r *snap.Reader) error {
	rt := d.rt
	count := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if count != len(rt.nodes) {
		return fmt.Errorf("diffusion: snapshot has %d nodes, runtime has %d", count, len(rt.nodes))
	}
	for i := range rt.nodes {
		n := &rt.nodes[i]
		n.seq = r.Int()
		n.sourceStarted = r.Bool()
		n.interestRound = r.Int()
		n.epoch = r.Int()
		n.repairNext = time.Duration(r.I64())
		n.repairIdle = r.Bool()
		n.truncNext = time.Duration(r.I64())
		n.truncIdle = r.Bool()
		ln := int(r.U32())
		if err := checkLen(r, ln, "link-quality table"); err != nil {
			return err
		}
		n.lq.es = nil
		for j := 0; j < ln; j++ {
			n.lq.es = append(n.lq.es, lqEntry{
				nbr: topology.NodeID(r.Int()),
				q:   r.F64(),
				at:  time.Duration(r.I64()),
			})
		}
		rn := int(r.U32())
		if err := checkLen(r, rn, "retry table"); err != nil {
			return err
		}
		n.retries = nil
		for j := 0; j < rn; j++ {
			n.retries = append(n.retries, ctrlRetry{
				to:       topology.NodeID(r.Int()),
				kind:     msg.Kind(r.Int()),
				iid:      msg.InterestID(r.Int()),
				id:       msg.MsgID(r.U64()),
				attempts: r.Int(),
				at:       time.Duration(r.I64()),
			})
		}
		sn := int(r.U32())
		if err := checkLen(r, sn, "interest table"); err != nil {
			return err
		}
		n.interests.reset()
		for j := 0; j < sn; j++ {
			iid, st, err := decodeInterestState(r)
			if err != nil {
				return err
			}
			n.interests.put(iid, st)
		}
	}
	on := int(r.U32())
	if err := checkLen(r, on, "orphan entry table"); err != nil {
		return err
	}
	for i := 0; i < on; i++ {
		d.orphans = append(d.orphans, decodeEntryState(r))
	}
	kn := int(r.U32())
	if err := checkLen(r, kn, "sent-count table"); err != nil {
		return err
	}
	rt.sent = make(map[msg.Kind]int, kn)
	for i := 0; i < kn; i++ {
		k := msg.Kind(r.Int())
		rt.sent[k] = r.Int()
	}
	rt.repair.WatchdogFires = r.Int()
	rt.repair.Reinforces = r.Int()
	rt.repair.Probes = r.Int()
	rt.repair.ProbeReplies = r.Int()
	rt.repair.CtrlRetries = r.Int()
	rt.repair.DataRebuffers = r.Int()
	rt.repair.FallbackBroadcasts = r.Int()
	cn := int(r.U32())
	if err := checkLen(r, cn, "cascade table"); err != nil {
		return err
	}
	if cn > 0 && rt.ins == nil {
		return fmt.Errorf("diffusion: snapshot carries %d cascade counters but telemetry is off", cn)
	}
	if rt.ins != nil {
		rt.ins.cascades = make(map[cascadeKey]int, cn)
		for i := 0; i < cn; i++ {
			k := cascadeKey{iid: msg.InterestID(r.Int()), id: msg.MsgID(r.U64())}
			rt.ins.cascades[k] = r.Int()
		}
	}
	return r.Err()
}

func checkLen(r *snap.Reader, n int, what string) error {
	if err := r.Err(); err != nil {
		return err
	}
	if n < 0 || n > r.Remaining() {
		return fmt.Errorf("diffusion: %s length %d exceeds snapshot size", what, n)
	}
	return nil
}

func decodeInterestState(r *snap.Reader) (msg.InterestID, *interestState, error) {
	st := &interestState{id: msg.InterestID(r.Int())}
	st.seenRound = r.Int()
	gn := int(r.U32())
	if err := checkLen(r, gn, "gradient table"); err != nil {
		return 0, nil, err
	}
	for i := 0; i < gn; i++ {
		st.grads.es = append(st.grads.es, gradEntry{
			nbr: topology.NodeID(r.Int()),
			g:   gradient{kind: gradKind(r.Int()), expires: time.Duration(r.I64())},
		})
	}
	en := int(r.U32())
	if err := checkLen(r, en, "entry table"); err != nil {
		return 0, nil, err
	}
	for i := 0; i < en; i++ {
		e := decodeEntryState(r)
		st.entries.ids = append(st.entries.ids, e.ID)
		st.entries.es = append(st.entries.es, e)
	}
	dn := int(r.U32())
	if err := checkLen(r, dn, "duplicate cache"); err != nil {
		return 0, nil, err
	}
	st.dataCache = make(map[msg.ItemKey]time.Duration, dn)
	for i := 0; i < dn; i++ {
		k := msg.ItemKey{Source: topology.NodeID(r.Int()), Seq: r.Int()}
		st.dataCache[k] = time.Duration(r.I64())
	}
	pn := int(r.U32())
	if err := checkLen(r, pn, "pending buffer"); err != nil {
		return 0, nil, err
	}
	for i := 0; i < pn; i++ {
		c := contribution{from: topology.NodeID(r.Int())}
		c.items = decodeItems(r)
		c.w = r.Int()
		c.newItems = decodeItems(r)
		st.pending.contribs = append(st.pending.contribs, c)
	}
	wn := int(r.U32())
	if err := checkLen(r, wn, "truncation window"); err != nil {
		return 0, nil, err
	}
	for i := 0; i < wn; i++ {
		a := ReceivedAgg{From: topology.NodeID(r.Int())}
		a.Items = decodeItems(r)
		a.W = r.Int()
		a.NewItems = decodeItems(r)
		st.window = append(st.window, a)
	}
	if err := decodeTimeTable(r, &st.lastDataFrom); err != nil {
		return 0, nil, err
	}
	if err := decodeTimeTable(r, &st.srcSeen); err != nil {
		return 0, nil, err
	}
	st.lastNegCascade = time.Duration(r.I64())
	st.negCascaded = r.Bool()
	st.activated = r.Bool()
	st.repairingUntil = time.Duration(r.I64())
	return st.id, st, r.Err()
}

func decodeEntryState(r *snap.Reader) *entryState {
	e := &entryState{}
	e.ID = msg.MsgID(r.U64())
	e.Origin = topology.NodeID(r.Int())
	e.Item = decodeItem(r)
	cn := int(r.U32())
	if r.Err() != nil || cn > r.Remaining() {
		r.Fail(fmt.Errorf("diffusion: copy list length %d exceeds snapshot size", cn))
		return e
	}
	for i := 0; i < cn; i++ {
		e.Copies = append(e.Copies, Copy{
			Nbr:     topology.NodeID(r.Int()),
			E:       r.Int(),
			Arrival: time.Duration(r.I64()),
		})
	}
	e.HasE = r.Bool()
	e.BestE = r.Int()
	e.HasC = r.Bool()
	e.BestC = r.Int()
	e.BestCNbr = topology.NodeID(r.Int())
	e.Chosen = topology.NodeID(r.Int())
	e.HasChosen = r.Bool()
	e.forwarded = r.Bool()
	e.skeleton = r.Bool()
	e.created = time.Duration(r.I64())
	e.chosenAt = time.Duration(r.I64())
	xn := int(r.U32())
	if r.Err() != nil || xn > r.Remaining() {
		r.Fail(fmt.Errorf("diffusion: exclusion set length %d exceeds snapshot size", xn))
		return e
	}
	if xn > 0 {
		e.excluded = make(map[topology.NodeID]bool, xn)
		for i := 0; i < xn; i++ {
			e.excluded[topology.NodeID(r.Int())] = true
		}
	}
	e.sinkTimer = r.Bool()
	e.probedAt = time.Duration(r.I64())
	e.repairing = r.Bool()
	e.fwdC = r.Int()
	e.hasFwdC = r.Bool()
	e.sentC = r.Int()
	e.hasSentC = r.Bool()
	return e
}

func decodeItem(r *snap.Reader) msg.Item {
	return msg.Item{
		Source:  topology.NodeID(r.Int()),
		Seq:     r.Int(),
		GenTime: r.I64(),
		Hops:    uint16(r.U32()),
		FanIn:   uint16(r.U32()),
	}
}

func decodeItems(r *snap.Reader) []msg.Item {
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining() {
		r.Fail(fmt.Errorf("diffusion: item list length %d exceeds snapshot size", n))
		return nil
	}
	if n == 0 {
		return nil
	}
	items := make([]msg.Item, n)
	for i := range items {
		items[i] = decodeItem(r)
	}
	return items
}

func decodeTimeTable(r *snap.Reader, t *timeTable) error {
	n := int(r.U32())
	if err := checkLen(r, n, "time table"); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		t.es = append(t.es, timeEntry{id: topology.NodeID(r.Int()), at: time.Duration(r.I64())})
	}
	return nil
}

// DecodeRunner rebuilds one diffusion-owned timer from its payload. Callers
// must report the timer the kernel hands back for the installed event via
// Installed, so the flush buffer's cancellation handle is rewired.
func (d *Restorer) DecodeRunner(r *snap.Reader) (sim.Runner, error) {
	rt := d.rt
	t := rt.acquireTimer()
	t.kind = timerKind(r.U8())
	id := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if id < 0 || id >= len(rt.nodes) {
		return nil, fmt.Errorf("diffusion: snapshot references node %d of %d", id, len(rt.nodes))
	}
	t.n = &rt.nodes[id]
	if stIID := r.Int(); stIID >= 0 {
		t.st = t.n.interests.get(msg.InterestID(stIID))
		if t.st == nil && r.Err() == nil {
			return nil, fmt.Errorf("diffusion: timer references unknown interest %d on node %d", stIID, id)
		}
	}
	var err error
	t.e, err = d.decodeEntryRef(r, t.n)
	if err != nil {
		return nil, err
	}
	t.m = msg.DecodeMessage(r)
	t.iid = msg.InterestID(r.Int())
	t.to = topology.NodeID(r.Int())
	t.ep = r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if t.kind < tkGenerate || t.kind > tkDataRetry {
		return nil, fmt.Errorf("diffusion: unknown timer kind %d", t.kind)
	}
	return t, nil
}

func (d *Restorer) decodeEntryRef(r *snap.Reader, n *node) (*entryState, error) {
	switch tag := r.U8(); tag {
	case entryRefNone:
		return nil, r.Err()
	case entryRefTable:
		iid := msg.InterestID(r.Int())
		id := msg.MsgID(r.U64())
		if err := r.Err(); err != nil {
			return nil, err
		}
		st := n.interests.get(iid)
		if st == nil {
			return nil, fmt.Errorf("diffusion: entry ref (%d, %d) on node %d: unknown interest", iid, id, n.id)
		}
		e := st.entries.get(id)
		if e == nil {
			return nil, fmt.Errorf("diffusion: entry ref (%d, %d) on node %d: unknown entry", iid, id, n.id)
		}
		return e, nil
	case entryRefOrphan:
		idx := r.Int()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if idx < 0 || idx >= len(d.orphans) {
			return nil, fmt.Errorf("diffusion: orphan entry ref %d outside table of %d", idx, len(d.orphans))
		}
		return d.orphans[idx], nil
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("diffusion: unknown entry ref tag %d", tag)
	}
}

// Installed reports the live kernel timer for a runner DecodeRunner
// produced. A flush timer rewires its interest's pending buffer — armed is
// true exactly when such an event is pending, so it is reconstructed here
// rather than stored.
func (d *Restorer) Installed(run sim.Runner, tm sim.Timer) {
	t, ok := run.(*nodeTimer)
	if !ok || t.kind != tkFlush || t.st == nil {
		return
	}
	t.st.pending.armed = true
	t.st.pending.rec = t
	t.st.pending.timer = tm
}

// FinishRestore marks the runtime started (restore replaces Start: the
// snapshot's pending events already carry all periodic activity) and
// reinstalls the hooks Start would have.
func (d *Restorer) FinishRestore() {
	rt := d.rt
	rt.started = true
	if rt.params.Repair.Enabled {
		rt.net.SetUnicastOutcomeHook(rt.unicastOutcome)
	}
}
