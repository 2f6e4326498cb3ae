package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// layerCounts are the counts the traced stack's recorders take at the layer
// boundaries, summed over the traced cells; the strategy and observer calls
// are counted by their folded spans.
type layerCounts struct {
	traceRecords int64
	rxDrops      int64
	unicastAcked int64
	unicastLost  int64
	placeTries   int64
	meanDegree   []float64
	telemetry    []obs.Metric // registry snapshots of the traced cells, merged
}

// stackResult is what one traced-stack simulation produced.
type stackResult struct {
	metrics metrics.Result
	mac     mac.Stats
	sent    map[msg.Kind]int
	events  uint64
	field   *topology.Field
}

// timedStrategy records the strategy calls the runtime makes from the event
// loop as folded spans.
type timedStrategy struct {
	inner         diffusion.Strategy
	choose, trunc *Folded
}

func (s timedStrategy) Name() string { return s.inner.Name() }

func (s timedStrategy) SinkReinforceDelay(p diffusion.Params) time.Duration {
	return s.inner.SinkReinforceDelay(p)
}

func (s timedStrategy) UsesIncrementalCost() bool { return s.inner.UsesIncrementalCost() }

func (s timedStrategy) ChooseUpstream(e *diffusion.ExplorEntry, exclude map[topology.NodeID]bool) (topology.NodeID, bool) {
	t0 := time.Now()
	nbr, ok := s.inner.ChooseUpstream(e, exclude)
	s.choose.Add(time.Since(t0))
	return nbr, ok
}

func (s timedStrategy) Truncate(window []diffusion.ReceivedAgg) []topology.NodeID {
	t0 := time.Now()
	v := s.inner.Truncate(window)
	s.trunc.Add(time.Since(t0))
	return v
}

// timedObserver records the metrics collector's workload callbacks.
type timedObserver struct {
	inner diffusion.Observer
	span  *Folded
}

func (o timedObserver) Generated(src topology.NodeID, item msg.Item) {
	t0 := time.Now()
	o.inner.Generated(src, item)
	o.span.Add(time.Since(t0))
}

func (o timedObserver) Delivered(sink topology.NodeID, item msg.Item, delay time.Duration) {
	t0 := time.Now()
	o.inner.Delivered(sink, item, delay)
	o.span.Add(time.Since(t0))
}

// countingTracer counts the protocol events the runtime reports.
type countingTracer struct{ n *int64 }

func (c countingTracer) Record(trace.Event) { *c.n++ }

// runStack assembles and runs one simulation from the layers' public
// constructors, in the order core.Run calls them, timing each call as a span
// and wrapping the interfaces the layers expose in recorders. It supports the
// configurations the benchmark's workloads use: diffusion schemes with
// optional failure waves, and no chaos, mobility, churn, battery or flight
// recorder. Because none of the recorders draws randomness or changes what
// the layers see, its digest must equal core.Run's for the same config.
func runStack(cfg core.Config, tr *Trace, lc *layerCounts) (stackResult, error) {
	if err := cfg.Validate(); err != nil {
		return stackResult{}, err
	}
	if cfg.Scheme.Idealized() || cfg.Chaos != nil || cfg.Mobility.Enabled() || cfg.Churn.Enabled() ||
		cfg.BatteryJ > 0 || cfg.FlightPath != "" || cfg.Shards > 1 || cfg.CheckpointPath != "" || cfg.Tracer != nil {
		return stackResult{}, fmt.Errorf("traced stack: configuration outside the supported envelope")
	}
	span := func(name string, f func() error) error {
		id := tr.Begin(name)
		defer tr.End(id)
		return f()
	}

	kernel := sim.NewKernel(cfg.Seed)
	var (
		field  *topology.Field
		assign workload.Assignment
	)
	for try := 0; ; try++ {
		lc.placeTries++
		err := span("topology.generate", func() (err error) {
			field, err = topology.Generate(topology.Config{
				Area: geom.Square(0, 0, cfg.FieldSide), Nodes: cfg.Nodes, Range: cfg.Range,
			}, kernel.Rand())
			return err
		})
		if err != nil {
			return stackResult{}, err
		}
		err = span("workload.place", func() (err error) {
			assign, err = workload.Place(field, cfg.Workload, kernel.Rand())
			return err
		})
		if err == nil {
			break
		}
		if try+1 >= cfg.MaxPlacementTries {
			return stackResult{}, fmt.Errorf("no usable placement after %d tries: %w", cfg.MaxPlacementTries, err)
		}
	}
	lc.meanDegree = append(lc.meanDegree, field.MeanDegree())

	var network *mac.Network
	if err := span("mac.new", func() (err error) {
		network, err = mac.New(kernel, field, cfg.Energy, cfg.MAC)
		return err
	}); err != nil {
		return stackResult{}, err
	}
	network.SetDropHook(func(topology.NodeID, topology.NodeID, mac.Frame, mac.RxDropReason) {
		lc.rxDrops++
	})
	network.SetUnicastOutcomeHook(func(_, _ topology.NodeID, _ mac.Frame, acked bool, _ int) {
		if acked {
			lc.unicastAcked++
		} else {
			lc.unicastLost++
		}
	})

	var collector *metrics.Collector
	_ = span("metrics.new_collector", func() error {
		collector = metrics.NewCollector(0, cfg.Duration-cfg.DrainTail, kernel.Now)
		return nil
	})

	strategy, err := cfg.Scheme.Strategy()
	if err != nil {
		return stackResult{}, err
	}
	ts := timedStrategy{inner: strategy, choose: &Folded{}, trunc: &Folded{}}
	obsv := timedObserver{inner: collector, span: &Folded{}}

	reg := obs.NewRegistry()
	var rt *diffusion.Runtime
	if err := span("diffusion.new", func() (err error) {
		rt, err = diffusion.New(kernel, network, field, cfg.Diffusion, ts,
			diffusion.Roles{Sinks: assign.Sinks, Sources: assign.Sources}, obsv)
		return err
	}); err != nil {
		return stackResult{}, err
	}
	rt.SetTracer(countingTracer{n: &lc.traceRecords})
	rt.SetInstruments(diffusion.NewInstruments(reg, cfg.Scheme.String()))

	fcfg := failure.Config{Fraction: 0, Wave: time.Second}
	if cfg.Failures != nil {
		fcfg = *cfg.Failures
	}
	if cfg.ProtectEndpoints {
		fcfg.Protect = append(append([]topology.NodeID(nil), assign.Sinks...), assign.Sources...)
	}
	var sched *failure.Schedule
	if err := span("failure.new", func() (err error) {
		sched, err = failure.New(kernel, network, field.Len(), fcfg)
		return err
	}); err != nil {
		return stackResult{}, err
	}

	_ = span("diffusion.start", func() error {
		rt.Start()
		sched.Start()
		return nil
	})

	// The strategy and observer calls all happen inside the event loop, so
	// their folded spans are the loop span's children.
	loop := tr.Begin("sim.run")
	kernel.Run(cfg.Duration)
	tr.End(loop)
	tr.AddFolded("strategy.choose_upstream", loop, ts.choose)
	tr.AddFolded("strategy.truncate", loop, ts.trunc)
	tr.AddFolded("metrics.observer", loop, obsv.span)

	var result metrics.Result
	err = span("metrics.finalize", func() error {
		sched.Finish()
		var totalJ, commJ float64
		perNode := make([]float64, field.Len())
		for i := 0; i < field.Len(); i++ {
			m := network.Meter(topology.NodeID(i))
			totalJ += m.TotalJoules()
			commJ += m.CommJoules()
			perNode[i] = m.CommJoules()
		}
		var ferr error
		result, ferr = collector.Finalize(cfg.Scheme.String(), field.Len(), field.MeanDegree(),
			len(assign.Sinks), totalJ, commJ)
		result.Concentration = metrics.NewConcentration(perNode)
		return ferr
	})
	if err != nil {
		return stackResult{}, err
	}
	rt.Instruments().FlushCascades()
	merged := obs.NewRegistry()
	if err := merged.Absorb(lc.telemetry); err != nil {
		return stackResult{}, err
	}
	if err := merged.Absorb(reg.Snapshot()); err != nil {
		return stackResult{}, err
	}
	lc.telemetry = merged.Snapshot()
	return stackResult{
		metrics: result,
		mac:     network.Stats(),
		sent:    rt.Sent(),
		events:  kernel.Processed(),
		field:   field,
	}, nil
}
