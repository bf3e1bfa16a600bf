package workloads

import (
	"context"
	"fmt"
	"strings"

	"chimera/internal/engine"
	"chimera/internal/jobspec"
	"chimera/internal/metrics"
	"chimera/internal/simjob"
)

// MultiResult is the outcome of running N benchmarks concurrently — the
// generalization of the paper's two-process case study (the paper's
// machinery never assumes two processes; the SM partitioning policy and
// Algorithm 1 are N-ary by construction).
type MultiResult struct {
	Benchmarks []string
	Policy     string
	ANTT       float64
	STP        float64
	// Requests is the number of preemption requests issued.
	Requests int
	// BusyFraction is the machine's SM-busy fraction over the run —
	// under non-preemptive FCFS, size-bound kernels leave most of it
	// idle.
	BusyFraction float64
}

// PairResult is one benchmark-pair × policy outcome of the §4.4 case
// study: absolute ANTT and STP (improvements over FCFS are computed by
// the experiment harness from two PairResults).
type PairResult struct {
	A, B   string
	Policy string
	ANTT   float64
	STP    float64
	// Requests is the number of preemption requests the pair generated.
	Requests int
}

// RunMulti runs the named benchmarks concurrently under the given
// policy (serial=true for the FCFS baseline) and computes N-program
// ANTT/STP against their stand-alone rates. Results are memoized by
// job identity like every other scenario.
func (r *Runner) RunMulti(benches []string, policy engine.Policy, serial bool) (MultiResult, error) {
	if len(benches) == 0 {
		return MultiResult{}, fmt.Errorf("workloads: RunMulti with no benchmarks")
	}
	return noExec(r.multi(context.Background(), scenario{kind: simjob.KindMulti, benches: benches, policy: policy, serial: serial}))
}

// RunPair runs two benchmarks concurrently under the given policy (nil
// policy + serial=true is the FCFS baseline) and computes ANTT/STP
// against their stand-alone rates.
func (r *Runner) RunPair(a, b string, policy engine.Policy, serial bool) (PairResult, error) {
	return noExec(r.pair(context.Background(), a, b, policy, serial))
}

// pair is the two-process case of multi, keyed as a pair and mapped onto
// PairResult.
func (r *Runner) pair(ctx context.Context, a, b string, policy engine.Policy, serial bool) (PairResult, bool, error) {
	m, executed, err := r.multi(ctx, scenario{kind: simjob.KindPair, benches: []string{a, b}, policy: policy, serial: serial})
	if err != nil {
		return PairResult{}, executed, err
	}
	return PairResult{A: a, B: b, Policy: m.Policy, ANTT: m.ANTT, STP: m.STP, Requests: m.Requests}, executed, nil
}

// multi runs sc's benchmarks concurrently and computes ANTT/STP against
// their stand-alone rates.
func (r *Runner) multi(ctx context.Context, sc scenario) (MultiResult, bool, error) {
	return do(ctx, r, sc, func(ctx context.Context) (MultiResult, error) {
		singles := make([]float64, len(sc.benches))
		for i, b := range sc.benches {
			rate, _, err := r.solo(ctx, b)
			if err != nil {
				return MultiResult{}, err
			}
			singles[i] = rate
		}
		sim, names, err := r.simulate(ctx, sc, nil)
		if err != nil {
			return MultiResult{}, err
		}
		progs := make([]metrics.ProgRate, len(sc.benches))
		for i, b := range sc.benches {
			// A process that never got the GPU inside the window (FCFS
			// behind a 20ms kernel) has measured rate zero; floor it at
			// one instruction per window so its normalized turnaround
			// reflects the starvation instead of failing the metric.
			u := sim.ProcessUseful(names[i])
			if u < 1 {
				u = 1
			}
			progs[i] = metrics.ProgRate{Name: b, Single: singles[i], Multi: float64(u) / float64(r.Window)}
		}
		policy := jobspec.PolicyName(sc.policy, sc.serial)
		antt, err := metrics.ANTT(progs)
		if err != nil {
			return MultiResult{}, fmt.Errorf("workloads: %s under %s: %w", MultiLabel(sc.benches), policy, err)
		}
		stp, err := metrics.STP(progs)
		if err != nil {
			return MultiResult{}, err
		}
		return MultiResult{
			Benchmarks:   append([]string(nil), sc.benches...),
			Policy:       policy,
			ANTT:         antt,
			STP:          stp,
			Requests:     len(sim.Requests()),
			BusyFraction: sim.SMBusyFraction(r.Window),
		}, nil
	})
}

// MultiLabel renders a benchmark set compactly, e.g. "LUD+HS+SAD".
func MultiLabel(benches []string) string {
	return strings.Join(benches, "+")
}
