package workloads

import (
	"context"
	"fmt"

	"chimera/internal/jobspec"
	"chimera/internal/simjob"
	"chimera/internal/units"
)

// SpecResult is the outcome of executing one jobspec.Spec: exactly one
// of the kind-specific payloads is populated, tagged by Kind.
type SpecResult struct {
	// Kind echoes the spec's scenario kind.
	Kind string
	// SoloRate is the stand-alone progress rate (solo specs).
	SoloRate float64
	// Periodic is the §4.1 periodic-task outcome (untraced periodic
	// specs).
	Periodic *PeriodicResult
	// Pair is the §4.4 ANTT/STP outcome (pair specs).
	Pair *PairResult
	// Recording is the full event stream and headline counts of a
	// traced periodic spec.
	Recording *Recording
}

// Executor runs canonical jobspec.Specs against the simulation engine.
// It snapshots a Runner's environment (catalog, pool, engine telemetry,
// warm/contention/device configuration, watchdog and fault plumbing) and
// derives a per-spec Runner for each Spec, so every entry point that
// speaks jobspec — chimerad, the exhibits, replay — funnels into the
// package's one scenario path, traced specs included. Two specs with
// equal Hash() map onto the same simjob.Job and therefore the same
// memoized result.
type Executor struct {
	base *Runner
}

// NewExecutor wraps an environment Runner. The Runner's Window,
// Constraint, Seed, Headroom and Variant act as nothing more than
// placeholders — each Run overrides them from the spec — while its
// remaining fields (catalog, pool, Warm, Contention, Config, Metrics,
// Watchdog, Stall, Variant fallback) define the execution environment
// shared by every spec.
func NewExecutor(r *Runner) *Executor {
	return &Executor{base: r}
}

// NewDefaultExecutor builds an Executor over the shared Table 2 catalog
// with the documented spec defaults as its environment.
func NewDefaultExecutor() (*Executor, error) {
	r, err := NewRunner(units.FromMicroseconds(1000), units.FromMicroseconds(15), 1)
	if err != nil {
		return nil, err
	}
	return NewExecutor(r), nil
}

// Runner exposes the environment Runner the Executor derives from.
func (e *Executor) Runner() *Runner { return e.base }

// specKinds maps a spec's kind onto its scenario kind.
var specKinds = map[string]simjob.Kind{
	jobspec.KindSolo:     simjob.KindSolo,
	jobspec.KindPeriodic: simjob.KindPeriodic,
	jobspec.KindPair:     simjob.KindPair,
}

// prepare normalizes and validates spec in place and derives its
// per-spec Runner — the base environment with the spec's simulation
// parameters substituted in — and its scenario.
func (e *Executor) prepare(spec *jobspec.Spec) (*Runner, scenario, error) {
	spec.Normalize()
	if err := spec.Validate(e.base.cat); err != nil {
		return nil, scenario{}, err
	}
	policy, serial, err := jobspec.ParsePolicy(spec.Policy)
	if err != nil {
		return nil, scenario{}, err
	}
	kind, ok := specKinds[spec.Kind]
	if !ok {
		return nil, scenario{}, fmt.Errorf("workloads: unknown spec kind %q", spec.Kind)
	}
	r := *e.base
	r.Window = units.FromMicroseconds(spec.WindowUs)
	r.Constraint = units.FromMicroseconds(spec.ConstraintUs)
	r.Headroom = units.FromMicroseconds(spec.HeadroomUs)
	r.Seed = spec.Seed
	r.Estimator = spec.Estimator
	if spec.Variant != "" {
		r.Variant = spec.Variant
	}
	sc := scenario{kind: kind, benches: []string{spec.Bench}, policy: policy, serial: serial}
	if spec.BenchB != "" {
		sc.benches = append(sc.benches, spec.BenchB)
	}
	return &r, sc, nil
}

// Run executes one spec. The spec is normalized and validated first, so
// callers may pass sparse specs straight from user input. executed
// reports whether the call ran a simulation (false = result cache or
// singleflight hit) — the dedup signal chimerad and replay reports use.
// A traced spec always simulates: its result is the Recording, which
// the cache never holds.
func (e *Executor) Run(ctx context.Context, spec jobspec.Spec) (res SpecResult, executed bool, err error) {
	r, sc, err := e.prepare(&spec)
	if err != nil {
		return SpecResult{}, false, err
	}
	res.Kind = spec.Kind
	switch {
	case spec.Trace:
		executed = true
		res.Recording, err = r.record(ctx, sc, nil)
	case sc.kind == simjob.KindSolo:
		res.SoloRate, executed, err = r.solo(ctx, spec.Bench)
	case sc.kind == simjob.KindPeriodic:
		var pr PeriodicResult
		pr, executed, err = r.periodic(ctx, spec.Bench, sc.policy)
		res.Periodic = &pr
	default:
		var pr PairResult
		pr, executed, err = r.pair(ctx, spec.Bench, spec.BenchB, sc.policy, sc.serial)
		res.Pair = &pr
	}
	if err != nil {
		return SpecResult{}, executed, err
	}
	return res, executed, nil
}

// RunSpecs executes a batch of specs over the pool's workers and returns
// results in enumeration order — like the other batch APIs, output is
// byte-identical at any parallelism. The first error aborts the batch.
func (e *Executor) RunSpecs(ctx context.Context, specs []jobspec.Spec) ([]SpecResult, error) {
	return fanOut(e.base.pool, specs, func(spec jobspec.Spec) (SpecResult, error) {
		res, _, err := e.Run(ctx, spec)
		if err != nil {
			return SpecResult{}, fmt.Errorf("workloads: spec %s (%s %s): %w", spec.Hash(), spec.Kind, spec.Benchmarks(), err)
		}
		return res, nil
	})
}

// SimJob returns the cache identity the spec executes under — the
// bridge between a Spec's serializable Hash() and the in-process
// simjob key. Equal spec hashes yield equal jobs under a fixed
// environment, which the identity tests pin.
func (e *Executor) SimJob(spec jobspec.Spec) (simjob.Job, error) {
	r, sc, err := e.prepare(&spec)
	if err != nil {
		return simjob.Job{}, err
	}
	return r.job(sc), nil
}
