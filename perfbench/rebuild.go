package main

import (
	"fmt"
	"time"

	"chimera/internal/core"
	"chimera/internal/engine"
	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/metrics"
	"chimera/internal/preempt"
	"chimera/internal/trace"
	"chimera/internal/units"
	"chimera/internal/workloads"
)

// engineCounts accumulates the work counters of rebuilt simulations.
type engineCounts struct {
	simCycles  int64
	events     int64
	selects    int64
	selectTime time.Duration
}

// counter is a trace.Recorder that only counts events.
type counter struct{ n *int64 }

func (c counter) Record(trace.Event) { *c.n++ }

// timedPolicy wraps an engine.Policy and times Select, the call the
// engine makes on every preemption request (it also calls Relaxed and
// Name, which are trivial).
type timedPolicy struct {
	inner  engine.Policy
	counts *engineCounts
	tr     *tracer
	parent int
}

func (p timedPolicy) Name() string  { return p.inner.Name() }
func (p timedPolicy) Relaxed() bool { return p.inner.Relaxed() }

func (p timedPolicy) Select(req core.Request, in core.Input) core.Selection {
	start := time.Now()
	sel := p.inner.Select(req, in)
	end := time.Now()
	p.counts.selects++
	p.counts.selectTime += end.Sub(start)
	p.tr.add("policy.select", p.parent, -1, start, end)
	return sel
}

// rebuilder re-runs a spec's scenario directly on engine.New with the
// options workloads.Runner uses, so the simulated result can be compared
// with the one the Executor returned. instrumented adds the timed policy
// wrapper, the counting recorder and a metrics registry.
type rebuilder struct {
	cat          *kernels.Catalog
	instrumented bool
	reg          *metrics.Registry
	counts       engineCounts
	tr           *tracer
	parent       int
	// problems collects failed conservation checks.
	problems []string
}

func (b *rebuilder) newSim(opts engine.Options, window units.Cycles) (*engine.Simulation, int) {
	span := b.tr.begin("engine.run", b.parent, -1)
	if b.instrumented {
		if opts.Policy != nil {
			opts.Policy = timedPolicy{inner: opts.Policy, counts: &b.counts, tr: b.tr, parent: span}
		}
		opts.Tracer = counter{n: &b.counts.events}
		opts.Metrics = b.reg
	}
	b.counts.simCycles += int64(window)
	return engine.New(opts), span
}

// run executes the scenario to the end of window and checks that every
// process's instruction accounting is conserved.
func (b *rebuilder) run(sim *engine.Simulation, span int, window units.Cycles, procs ...string) {
	sim.Run(window)
	b.tr.end(span)
	for _, p := range procs {
		useful, wasted, issued := sim.ProcessUseful(p), sim.ProcessWasted(p), sim.ProcessIssued(p)
		if useful+wasted != issued || useful < 0 || wasted < 0 {
			b.problems = append(b.problems, fmt.Sprintf("%s: useful %d + wasted %d != issued %d", p, useful, wasted, issued))
		}
	}
}

func (b *rebuilder) launches(bench string) ([]engine.LaunchSpec, error) {
	bm, err := b.cat.Benchmark(bench)
	if err != nil {
		return nil, err
	}
	return workloads.Launches(b.cat, bm)
}

func (b *rebuilder) soloRate(bench string, window, constraint units.Cycles, seed uint64) (float64, error) {
	l, err := b.launches(bench)
	if err != nil {
		return 0, err
	}
	sim, span := b.newSim(engine.Options{
		Policy:     engine.ChimeraPolicy{},
		Constraint: constraint,
		Seed:       seed,
		WarmStats:  true,
	}, window)
	sim.AddProcess(engine.ProcessSpec{Name: bench, Launches: l, Loop: true})
	b.run(sim, span, window, bench)
	return float64(sim.ProcessUseful(bench)) / float64(window), nil
}

// rebuild runs one normalized spec and returns its result in the
// Executor's shape.
func (b *rebuilder) rebuild(spec jobspec.Spec) (workloads.SpecResult, error) {
	window := units.FromMicroseconds(spec.WindowUs)
	constraint := units.FromMicroseconds(spec.ConstraintUs)
	policy, serial, err := jobspec.ParsePolicy(spec.Policy)
	if err != nil {
		return workloads.SpecResult{}, err
	}
	if spec.Estimator != "" && spec.Estimator != jobspec.EstimatorOracle {
		return workloads.SpecResult{}, fmt.Errorf("rebuild supports the oracle estimator only, not %q", spec.Estimator)
	}
	res := workloads.SpecResult{Kind: spec.Kind}
	switch spec.Kind {
	case jobspec.KindSolo:
		res.SoloRate, err = b.soloRate(spec.Bench, window, constraint, spec.Seed)
	case jobspec.KindPeriodic:
		var pr workloads.PeriodicResult
		pr, err = b.periodic(spec.Bench, policy, window, constraint, units.FromMicroseconds(spec.HeadroomUs), spec.Seed)
		res.Periodic = &pr
	case jobspec.KindPair:
		var pr workloads.PairResult
		pr, err = b.pair(spec.Bench, spec.BenchB, policy, serial, window, constraint, spec.Seed)
		res.Pair = &pr
	default:
		err = fmt.Errorf("unknown kind %q", spec.Kind)
	}
	return res, err
}

// periodic mirrors the §4.1 accounting of workloads.Runner.
func (b *rebuilder) periodic(bench string, policy engine.Policy, window, constraint, headroom units.Cycles, seed uint64) (workloads.PeriodicResult, error) {
	solo, err := b.soloRate(bench, window, constraint, seed)
	if err != nil {
		return workloads.PeriodicResult{}, err
	}
	l, err := b.launches(bench)
	if err != nil {
		return workloads.PeriodicResult{}, err
	}
	sim, span := b.newSim(engine.Options{
		Policy:     policy,
		Constraint: constraint,
		Seed:       seed,
		WarmStats:  true,
		Headroom:   headroom,
	}, window)
	sim.AddProcess(engine.ProcessSpec{Name: bench, Launches: l, Loop: true})
	rt := workloads.PeriodicSpec(sim.Config().NumSMs)
	sim.AddPeriodicTask(rt)
	b.run(sim, span, window, bench)

	res := workloads.PeriodicResult{Benchmark: bench, Policy: policy.Name()}
	soloUseful := solo * float64(rt.Period)
	share := 1 - float64(rt.SMs)/float64(sim.Config().NumSMs)*float64(rt.Exec)/float64(rt.Period)
	fair := soloUseful * share
	var overheads []float64
	var violated []bool
	for _, p := range sim.PeriodRecords() {
		violated = append(violated, p.Violated)
		overheads = append(overheads, metrics.PeriodOverhead(soloUseful, fair, float64(p.BenchUseful)))
	}
	res.Periods = len(violated)
	res.ViolationRate = metrics.ViolationRate(violated)
	res.Overhead = metrics.Mean(overheads)
	for _, req := range sim.Requests() {
		mix := req.Mix()
		for t, n := range mix {
			res.Mix[t] += n
		}
		if req.Forced > 0 {
			res.ForcedRequests++
		}
		out := workloads.RequestOutcome{
			LatencyUs: req.LatencyCycles.Microseconds(),
			Completed: req.Completed,
			Killed:    req.Killed,
		}
		if req.EstLatencyCycles > 0 && req.EstLatencyCycles < preempt.Infeasible {
			out.EstLatencyUs = req.EstLatencyCycles / units.CyclesPerMicrosecond
		}
		out.Technique, out.HasTechnique = req.Dominant()
		res.Outcomes = append(res.Outcomes, out)
	}
	return res, nil
}

// pair mirrors the §4.4 accounting of workloads.Runner.
func (b *rebuilder) pair(a, c string, policy engine.Policy, serial bool, window, constraint units.Cycles, seed uint64) (workloads.PairResult, error) {
	rateA, err := b.soloRate(a, window, constraint, seed)
	if err != nil {
		return workloads.PairResult{}, err
	}
	rateB, err := b.soloRate(c, window, constraint, seed)
	if err != nil {
		return workloads.PairResult{}, err
	}
	la, err := b.launches(a)
	if err != nil {
		return workloads.PairResult{}, err
	}
	lb, err := b.launches(c)
	if err != nil {
		return workloads.PairResult{}, err
	}
	sim, span := b.newSim(engine.Options{
		Policy:     policy,
		Constraint: constraint,
		Seed:       seed,
		WarmStats:  true,
		Serial:     serial,
	}, window)
	nameA, nameB := a+"#0", c+"#1"
	sim.AddProcess(engine.ProcessSpec{Name: nameA, Launches: la, Loop: true})
	sim.AddProcess(engine.ProcessSpec{Name: nameB, Launches: lb, Loop: true})
	b.run(sim, span, window, nameA, nameB)
	rate := func(name string) float64 {
		u := sim.ProcessUseful(name)
		if u < 1 {
			u = 1
		}
		return float64(u) / float64(window)
	}
	progs := []metrics.ProgRate{
		{Name: a, Single: rateA, Multi: rate(nameA)},
		{Name: c, Single: rateB, Multi: rate(nameB)},
	}
	antt, err := metrics.ANTT(progs)
	if err != nil {
		return workloads.PairResult{}, err
	}
	stp, err := metrics.STP(progs)
	if err != nil {
		return workloads.PairResult{}, err
	}
	return workloads.PairResult{
		A: a, B: c,
		Policy:   jobspec.PolicyName(policy, serial),
		ANTT:     antt,
		STP:      stp,
		Requests: len(sim.Requests()),
	}, nil
}
