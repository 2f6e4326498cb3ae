package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// This file is the kernel's checkpoint/restore surface (DESIGN.md §12).
//
// The heap layout, arena slot assignment, and free-list order are
// unobservable implementation details — the (at, seq) total order alone
// decides firing order — so a snapshot records only the pending events
// themselves plus the clock scalars and the RNG stream position. A restored
// kernel may lay its arena out differently and still replay the exact same
// event sequence.

// countingSource wraps math/rand's Source64, counting state advances.
// Every Int63 and Uint64 call is exactly one advance of the underlying
// generator, so the count fully determines the stream position and a
// restore replays `draws` throwaway calls on a fresh seeded source to
// resume bit-identically.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.draws = 0
}

// RandDraws returns the total number of RNG state advances consumed so far.
// Recorded in snapshots; see ForwardRand.
func (k *Kernel) RandDraws() uint64 { return k.src.draws }

// NextSeq returns the sequence number the next scheduled event will get.
// Recorded in snapshots so RestoreClock resumes the numbering exactly.
func (k *Kernel) NextSeq() uint64 { return k.seq }

// ForwardRand advances the kernel's RNG to the absolute stream position
// target (a RandDraws value recorded at checkpoint time). The kernel must
// not have moved past it already.
func (k *Kernel) ForwardRand(target uint64) error {
	if k.src.draws > target {
		return fmt.Errorf("sim: rng already at draw %d, cannot rewind to %d", k.src.draws, target)
	}
	for k.src.draws < target {
		k.src.Int63()
	}
	return nil
}

// PendingEvent describes one scheduled event for checkpointing, in the
// kernel's firing order.
type PendingEvent struct {
	At  Time
	Seq uint64
	// Runner is the scheduled object for ScheduleRunner events; nil for
	// cancelled placeholders and for closure (Handler) events.
	Runner Runner
	// Cancelled marks a Stop'd record still occupying its heap slot. It is
	// preserved across restore as a placeholder so queue depth, compaction
	// behavior, and the high-water mark evolve identically.
	Cancelled bool
	// Closure marks an event scheduled via Schedule(fn). Closures carry
	// captured state the snapshot layer cannot see, so their presence makes
	// a run uncheckpointable — the encoder reports which subsystem still
	// schedules one.
	Closure bool
}

// PendingEvents returns every live heap entry sorted by firing order
// (at, seq) — the canonical serialization order.
func (k *Kernel) PendingEvents() []PendingEvent {
	out := make([]PendingEvent, 0, len(k.heap))
	for _, key := range k.heap {
		ev := &k.pool[key.idx]
		out = append(out, PendingEvent{
			At:        key.at,
			Seq:       key.seq,
			Runner:    ev.runner,
			Cancelled: ev.state == evCancelled,
			Closure:   ev.fn != nil,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// RestoreClock installs the recorded clock scalars into a freshly built
// kernel. It must run before any RestoreEvent call and requires an empty
// queue — restore rebuilds, never merges.
func (k *Kernel) RestoreClock(now Time, seq, processed uint64) error {
	if len(k.heap) != 0 {
		return fmt.Errorf("sim: RestoreClock on a kernel with %d queued events", len(k.heap))
	}
	k.now = now
	k.seq = seq
	k.processed = processed
	return nil
}

// RestoreEvent reinstalls one pending event at its exact recorded (at, seq)
// position. A nil runner reinstalls a cancelled placeholder. The returned
// Timer is live for runner events, so owners that kept a handle (e.g. the
// diffusion flush timer) can rewire it.
func (k *Kernel) RestoreEvent(at Time, seq uint64, r Runner) (Timer, error) {
	if seq >= k.seq {
		return Timer{}, fmt.Errorf("sim: restored event seq %d not below next seq %d", seq, k.seq)
	}
	if at < k.now {
		return Timer{}, fmt.Errorf("sim: restored event at %v is before now %v", at, k.now)
	}
	idx := k.alloc()
	ev := &k.pool[idx]
	ev.fn = nil
	ev.runner = r
	ev.state = evPending
	if r == nil {
		ev.state = evCancelled
		k.cancelled++
	}
	k.push(heapKey{at: at, seq: seq, idx: idx})
	return Timer{k: k, idx: idx, gen: ev.gen}, nil
}

// RestoreQueueHighWater overwrites the queue-depth high-water mark with the
// recorded value. Called last in a restore, after RestoreEvent's inserts
// have bumped the mark to the current depth.
func (k *Kernel) RestoreQueueHighWater(n int) { k.maxQueue = n }
