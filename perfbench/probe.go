package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: other tenants' load changes
// how fast the same work runs by up to a factor of two over minutes (the
// same paper_cell inputs took 2.9 s and 6.6 s within a quarter of an hour),
// and windows of paper-cell run times follow a memory-latency probe far more
// closely than an integer loop. A run therefore times a fixed probe that
// does not depend on the program, an integer loop plus a pointer chase
// through a 48 MB cycle that lives in the last-level cache other tenants
// share with us, and reports its host times scaled by probeRefSeconds over
// the probe's mean time in the run. The raw times are printed beside the
// scaled ones. The probe follows only part of a slowdown: when the host ran
// the simulator 2.1 times slower, the probe ran about 1.5 times slower.
//
// The mean, not the median: the hypervisor also takes the CPU away (steal
// time, up to a quarter of it in slow stretches), unevenly, so a few probes
// of a run come out far slower than the rest. An execution of several
// seconds absorbs that loss on average; a median of the probes would drop it.

// probeRefSeconds is the probe's time on a quiet 2-vCPU Xeon host; scaled
// times equal raw times at that speed.
const probeRefSeconds = 0.17

const (
	probeBytes      = 48 << 20
	probeLoopIters  = 40_000_000
	probeChaseSteps = 600_000
)

// hostProbe owns the chase cycle, mapped outside the Go heap so it does not
// count towards peak_heap_mb.
type hostProbe struct {
	mem  []byte
	next []uint32
	at   uint32 // where the next chase starts
	sink uint64 // keeps the loop's result, so neither loop can be elided
}

func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("probe: mmap: %w", err)
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), probeBytes/4)
	// Sattolo's shuffle makes one cycle through every slot, so the chase
	// visits the whole buffer in an order the prefetcher cannot follow.
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return &hostProbe{mem: mem, next: next}, nil
}

// time runs the probe once and returns its host seconds.
func (p *hostProbe) time() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < probeLoopIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	at := p.at
	for i := 0; i < probeChaseSteps; i++ {
		at = p.next[at]
	}
	p.at = at
	p.sink += x
	return time.Since(t0).Seconds()
}

func (p *hostProbe) close() error {
	p.next = nil
	return syscall.Munmap(p.mem)
}
