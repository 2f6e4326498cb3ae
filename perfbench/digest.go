package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/msg"
)

// simDigest hashes what a simulation produced: the model metrics, the MAC
// counters, the protocol sends by kind and the kernel event count. fmt
// prints maps in key order and floats in their shortest exact form, so equal
// outputs give equal digests. Sweep cells come from the harness ledger, which
// does not carry MAC counters; they are hashed with a zero mac.Stats on both
// sides of every comparison.
func simDigest(m metrics.Result, st mac.Stats, sent map[msg.Kind]int, events uint64) string {
	h := sha256.New()
	rec := m.Recovery
	m.Recovery = nil // a pointer would print as an address
	fmt.Fprintf(h, "%+v\n", m)
	if rec != nil {
		fmt.Fprintf(h, "%+v\n", *rec)
	}
	fmt.Fprintf(h, "%+v\n%v\n%d\n", st, sent, events)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkSim applies the sanity checks every measured simulation must pass.
// Under failure waves a delivery ratio of 0 is a valid outcome: with 20% of
// the nodes down, a sparse 50-node field can stay cut between its sources
// and its sink for the whole run (4% of such cells at the paper's 160 s), so
// those cells need only a ratio in [0, 1]; execSweep checks that each series
// still delivers.
func checkSim(m metrics.Result, events uint64, failures bool) error {
	lo := "("
	ok := m.DeliveryRatio > 0
	if failures {
		lo, ok = "[", m.DeliveryRatio >= 0
	}
	switch {
	case !ok || !(m.DeliveryRatio <= 1):
		return fmt.Errorf("delivery ratio %v outside %s0, 1]", m.DeliveryRatio, lo)
	case !(m.CommEnergy > 0) || math.IsInf(m.CommEnergy, 0):
		return fmt.Errorf("communication energy %v not positive", m.CommEnergy)
	case events == 0:
		return fmt.Errorf("no kernel events")
	}
	return nil
}

// simDigestOf hashes a text, such as the sorted cell digests of a sweep.
func simDigestOf(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])[:16]
}
