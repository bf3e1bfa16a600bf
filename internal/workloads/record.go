package workloads

import (
	"context"

	"chimera/internal/engine"
	"chimera/internal/gpu"
	"chimera/internal/kernels"
	"chimera/internal/metrics"
	"chimera/internal/simjob"
	"chimera/internal/trace"
	"chimera/internal/units"
)

// RecordOptions configures one directly-executed (never cached)
// contention scenario whose full event stream is kept: the §4.1 setup of
// a looping background benchmark preempted by the periodic real-time
// task. Zero values select the canonical recording: SAD under the
// Chimera policy with a 15 µs constraint for 5 ms.
type RecordOptions struct {
	// Bench is the background benchmark's catalog name (default "SAD").
	Bench string
	// Window is the simulated duration (default 5 ms).
	Window units.Cycles
	// Constraint is the preemption latency bound (default 15 µs).
	Constraint units.Cycles
	// Seed drives the deterministic RNG (default 1).
	Seed uint64
	// Policy executes preemption requests (default ChimeraPolicy).
	Policy engine.Policy
	// Config overrides the device configuration (zero value = Table 1).
	Config gpu.Config
	// Metrics, when set, additionally collects the engine's histograms
	// and counters into the given registry.
	Metrics *metrics.Registry
	// Estimator selects the runtime-estimate source ("" or "oracle" =
	// the built-in warm-started measured statistics; "online" = the
	// structural predictor).
	Estimator string
	// Extra, when set, receives every event alongside the Recording's
	// own collector (e.g. a trace.WriterSink streaming to disk).
	Extra trace.Recorder
}

// Recording is the outcome of one Record run: the complete ordered
// event stream plus headline counts for a one-line summary.
type Recording struct {
	// Events is every event the run emitted, in nondecreasing At order.
	Events []trace.Event
	// Periods and Violations count evaluated real-time task instances
	// and their deadline misses.
	Periods    int
	Violations int
	// Requests counts preemption requests issued.
	Requests int
	// Window is the simulated duration actually used.
	Window units.Cycles
	// Bench is the background benchmark actually used.
	Bench string
}

// Record executes one contention scenario with full tracing and returns
// the recording. Unlike the Runner scenario methods it never consults
// the simjob cache — a trace is a side effect, and cached results carry
// none — so every call simulates.
func Record(opts RecordOptions) (*Recording, error) {
	return RecordContext(context.Background(), opts)
}

// RecordContext is Record with cancellation threaded down to the engine
// event loop: a cancelled ctx aborts the simulation within one event
// and returns ctx's error (no partial Recording is produced). It runs
// the periodic scenario path a traced jobspec takes through
// Executor.Run, with no headroom, watchdog or contention.
func RecordContext(ctx context.Context, opts RecordOptions) (*Recording, error) {
	if opts.Bench == "" {
		opts.Bench = "SAD"
	}
	if opts.Window == 0 {
		opts.Window = units.FromMicroseconds(5000)
	}
	if opts.Constraint == 0 {
		opts.Constraint = units.FromMicroseconds(15)
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Policy == nil {
		opts.Policy = engine.ChimeraPolicy{}
	}
	r := &Runner{
		Window:     opts.Window,
		Constraint: opts.Constraint,
		Seed:       opts.Seed,
		Warm:       true,
		Config:     opts.Config,
		Metrics:    opts.Metrics,
		Estimator:  opts.Estimator,
		cat:        kernels.Load(),
	}
	sc := scenario{kind: simjob.KindPeriodic, benches: []string{opts.Bench}, policy: opts.Policy}
	return r.record(ctx, sc, opts.Extra)
}

// record runs sc uncached with a collector attached (plus extra, when
// set) and returns the recording.
func (r *Runner) record(ctx context.Context, sc scenario, extra trace.Recorder) (*Recording, error) {
	col := trace.NewCollector()
	var rec trace.Recorder = col
	if extra != nil {
		rec = trace.Multi{col, extra}
	}
	sim, _, err := r.simulate(ctx, sc, rec)
	if err != nil {
		return nil, err
	}
	out := &Recording{
		Events:   col.Events(),
		Requests: len(sim.Requests()),
		Window:   r.Window,
		Bench:    sc.benches[0],
	}
	for _, p := range sim.PeriodRecords() {
		out.Periods++
		if p.Violated {
			out.Violations++
		}
	}
	return out, nil
}
