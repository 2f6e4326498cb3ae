package main

import (
	"math/rand"
	"time"

	"repro/internal/energy"
	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The layer drivers time one layer's hot call in a loop, at the state the
// workload puts it in, after a warm-up that fills the kernel's event pool
// and the MAC's transmission pools. Each returns the median per-call cost
// over batches run for about d.

const driverBatches = 9

// scheduleStepNs is the per-event cost of Schedule plus Step on a kernel
// holding depth pending events: every fired event schedules one successor
// (the hold model), so the queue stays at the workload's depth.
func scheduleStepNs(depth int, seed int64, d time.Duration) float64 {
	if depth < 1 {
		depth = 1
	}
	rng := rand.New(rand.NewSource(seed))
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Microsecond + time.Duration(rng.Int63n(int64(time.Second)))
	}
	k := sim.NewKernel(seed)
	next := 0
	var fire func()
	fire = func() {
		k.Schedule(delays[next&(len(delays)-1)], fire)
		next++
	}
	for i := 0; i < depth; i++ {
		k.Schedule(delays[i&(len(delays)-1)], fire)
	}
	for i := 0; i < 2*depth; i++ {
		k.Step()
	}
	const batch = 1 << 16
	return perCall(d, batch, func() {
		for i := 0; i < batch; i++ {
			k.Step()
		}
	})
}

// broadcastNs is the cost of one MAC broadcast and the kernel run that
// carries it through contention, airtime and every neighbor's reception, on
// the workload's own field. Senders cycle through the field.
func broadcastNs(field *topology.Field, seed int64, model energy.Model, params mac.Params, d time.Duration) (float64, error) {
	k := sim.NewKernel(seed)
	net, err := mac.New(k, field, model, params)
	if err != nil {
		return 0, err
	}
	n := field.Len()
	sender := 0
	send := func() {
		_ = net.Broadcast(topology.NodeID(sender%n), mac.Frame{Bytes: 64})
		k.Run(k.Now() + 10*time.Millisecond)
		sender++
	}
	for i := 0; i < n && i < 5000; i++ {
		send()
	}
	const batch = 256
	return perCall(d, batch, func() {
		for i := 0; i < batch; i++ {
			send()
		}
	}), nil
}

// perCall runs batch-sized rounds of f for about d (at least driverBatches
// rounds) and returns the median nanoseconds per call.
func perCall(d time.Duration, batch int, f func()) float64 {
	var per []float64
	start := time.Now()
	for len(per) < driverBatches || time.Since(start) < d {
		t0 := time.Now()
		f()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return median(per)
}
