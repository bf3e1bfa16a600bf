package workloads

import (
	"chimera/internal/engine"
	"chimera/internal/simjob"
)

// Batch APIs: each enumerates its full job set up front, fans it out
// over the Runner's pool, and assembles results in enumeration order —
// completion order never shows in the output, so tables built from a
// batch are byte-identical at any parallelism.

// fanOut runs fn on every item over the pool's workers and returns the
// results in item order. The first error aborts the batch.
func fanOut[S, T any](pool *simjob.Pool, items []S, fn func(S) (T, error)) ([]T, error) {
	out := make([]T, len(items))
	tasks := make([]func() error, len(items))
	for i := range items {
		tasks[i] = func() error {
			res, err := fn(items[i])
			out[i] = res
			return err
		}
	}
	if err := pool.Run(tasks...); err != nil {
		return nil, err
	}
	return out, nil
}

// RunPeriodicAll runs the §4.1 scenario for every benchmark × policy
// combination and returns results indexed [benchmark][policy] in
// argument order.
func (r *Runner) RunPeriodicAll(benches []string, policies []engine.Policy) ([][]PeriodicResult, error) {
	type cell struct {
		bench  string
		policy engine.Policy
	}
	cells := make([]cell, 0, len(benches)*len(policies))
	for _, bench := range benches {
		for _, policy := range policies {
			cells = append(cells, cell{bench, policy})
		}
	}
	flat, err := fanOut(r.pool, cells, func(c cell) (PeriodicResult, error) {
		return r.RunPeriodic(c.bench, c.policy)
	})
	if err != nil {
		return nil, err
	}
	n := len(policies)
	results := make([][]PeriodicResult, len(benches))
	for i := range results {
		results[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return results, nil
}

// PairSpec names one §4.4 pair run: two benchmarks under a policy (nil
// policy + Serial for the FCFS baseline).
type PairSpec struct {
	A, B   string
	Policy engine.Policy
	Serial bool
}

// RunPairsAll runs every spec and returns results in spec order.
func (r *Runner) RunPairsAll(specs []PairSpec) ([]PairResult, error) {
	return fanOut(r.pool, specs, func(s PairSpec) (PairResult, error) {
		return r.RunPair(s.A, s.B, s.Policy, s.Serial)
	})
}

// MultiSpec names one N-process run.
type MultiSpec struct {
	Benchmarks []string
	Policy     engine.Policy
	Serial     bool
}

// RunMultiAll runs every spec and returns results in spec order.
func (r *Runner) RunMultiAll(specs []MultiSpec) ([]MultiResult, error) {
	return fanOut(r.pool, specs, func(s MultiSpec) (MultiResult, error) {
		return r.RunMulti(s.Benchmarks, s.Policy, s.Serial)
	})
}
