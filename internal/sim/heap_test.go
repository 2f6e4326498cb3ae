package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refRunner is a Runner that records its id on firing.
type refRunner struct {
	id    int
	fired *[]int
}

func (r *refRunner) Run() { *r.fired = append(*r.fired, r.id) }

// refEvent is the reference model's view of one live event.
type refEvent struct {
	at  Time
	seq uint64
	id  int
	tm  Timer
}

// TestHeapMatchesSortedReference drives the kernel with a random mix of
// schedules, cancellations, forced compactions and single steps, and checks
// after every operation that the fired order and the PendingEvents order
// equal a sort of the live events by (at, seq).
func TestHeapMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel(seed)
		var fired []int
		var live []refEvent
		nextID := 0

		sortLive := func() {
			sort.Slice(live, func(i, j int) bool {
				if live[i].at != live[j].at {
					return live[i].at < live[j].at
				}
				return live[i].seq < live[j].seq
			})
		}
		check := func(op string) {
			t.Helper()
			sortLive()
			var got []PendingEvent
			for _, pe := range k.PendingEvents() {
				if !pe.Cancelled {
					got = append(got, pe)
				}
			}
			if len(got) != len(live) {
				t.Fatalf("seed %d after %s: %d live pending events, reference has %d", seed, op, len(got), len(live))
			}
			for i, pe := range got {
				want := live[i]
				if pe.At != want.at || pe.Seq != want.seq || pe.Runner.(*refRunner).id != want.id {
					t.Fatalf("seed %d after %s: pending[%d] = (%v, %d, id %d), want (%v, %d, id %d)",
						seed, op, i, pe.At, pe.Seq, pe.Runner.(*refRunner).id, want.at, want.seq, want.id)
				}
			}
		}

		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(100); {
			case op < 50: // schedule; a narrow delay range forces many (at) ties
				r := &refRunner{id: nextID, fired: &fired}
				d := Time(rng.Intn(40)) * time.Microsecond
				seq := k.seq
				tm := k.ScheduleRunner(d, r)
				live = append(live, refEvent{at: k.Now() + d, seq: seq, id: nextID, tm: tm})
				nextID++
				check("schedule")
			case op < 70: // cancel a random live event
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				if !live[i].tm.Stop() {
					t.Fatalf("seed %d: Stop of live event %d reported not pending", seed, live[i].id)
				}
				live = append(live[:i], live[i+1:]...)
				check("stop")
			case op < 75: // forced compaction, whatever the cancelled share
				k.compact()
				check("compact")
			default: // fire one event
				sortLive()
				n := len(fired)
				ok := k.Step()
				if ok != (len(live) > 0) {
					t.Fatalf("seed %d: Step = %v with %d live events", seed, ok, len(live))
				}
				if !ok {
					continue
				}
				if len(fired) != n+1 || fired[n] != live[0].id {
					t.Fatalf("seed %d: fired id %v, want %d", seed, fired[n:], live[0].id)
				}
				if k.Now() != live[0].at {
					t.Fatalf("seed %d: clock %v after firing event due %v", seed, k.Now(), live[0].at)
				}
				live = live[1:]
				check("step")
			}
		}
		// Drain: the rest must fire in reference order.
		sortLive()
		fired = fired[:0]
		for k.Step() {
		}
		if len(fired) != len(live) {
			t.Fatalf("seed %d: drain fired %d events, want %d", seed, len(fired), len(live))
		}
		for i := range live {
			if fired[i] != live[i].id {
				t.Fatalf("seed %d: drain position %d fired id %d, want %d", seed, i, fired[i], live[i].id)
			}
		}
	}
}

// TestReserveAvoidsGrowth pins Reserve's contract: after Reserve(n), n
// schedules grow neither the queue nor the event arena.
func TestReserveAvoidsGrowth(t *testing.T) {
	k := NewKernel(1)
	var fired []int
	r := &refRunner{fired: &fired}
	const n = 1000
	k.Reserve(n)
	heapCap, poolCap := cap(k.heap), cap(k.pool)
	for i := 0; i < n; i++ {
		k.ScheduleRunner(Time(i), r)
	}
	if cap(k.heap) != heapCap || cap(k.pool) != poolCap {
		t.Fatalf("capacities grew from (%d, %d) to (%d, %d) within the reservation",
			heapCap, poolCap, cap(k.heap), cap(k.pool))
	}
}
