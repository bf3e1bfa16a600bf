package workloads

import (
	"context"
	"errors"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/metrics"
	"chimera/internal/simjob"
	"chimera/internal/units"
)

// TestRunMultiObservesMetrics pins that N-process runs forward the
// Runner's registry to the engine like every other scenario: on a fresh
// cache the preemption-request counter equals the requests the run
// reports (the solo baselines issue none).
func TestRunMultiObservesMetrics(t *testing.T) {
	r := isolatedRunner(t, 6000, 1)
	r.Metrics = metrics.NewRegistry()
	res, err := r.RunMulti([]string{"HS", "SAD", "BT"}, engine.ChimeraPolicy{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("the 3-way run issued no preemption requests; pick a mix that preempts")
	}
	if got := r.Metrics.Counter(engine.MetricRequests).Value(); got != int64(res.Requests) {
		t.Errorf("%s = %d after RunMulti, want the run's %d requests", engine.MetricRequests, got, res.Requests)
	}
}

// TestMultiHonoursCancellation pins that the multi path runs the engine
// under the caller's ctx: a ctx cancelled at the run's first preemption
// request (the stall hook fires inside the multi engine only — solo
// baselines never preempt) aborts it with context.Canceled.
func TestMultiHonoursCancellation(t *testing.T) {
	r := isolatedRunner(t, 6000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.Stall = func(int, units.Cycles) units.Cycles {
		cancel()
		return 0
	}
	sc := scenario{kind: simjob.KindMulti, benches: []string{"HS", "SAD", "BT"}, policy: engine.ChimeraPolicy{}}
	if _, _, err := r.multi(ctx, sc); !errors.Is(err, context.Canceled) {
		t.Fatalf("multi under a cancelled ctx returned %v, want context.Canceled", err)
	}
}
