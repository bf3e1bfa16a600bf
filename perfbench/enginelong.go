package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"chimera/internal/engine"
	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/metrics"
	"chimera/internal/simjob"
	"chimera/internal/units"
	"chimera/internal/workloads"
)

// engineLongWindowUs is the simulated window of every engine-long spec.
const engineLongWindowUs = 10_000

// engineLongOpLimit is the latency limit slo_met_pct applies to one
// engine-long simulation.
const engineLongOpLimit = 5 * time.Second

// engineLongSpecs is the fixed engine-long list: the §4.1 periodic
// scenario under chimera on benchmarks covering the catalog's block
// behaviours (BP, FWT: short non-idempotent; MUM, LC, KM: long
// idempotent; SAD: many small idempotent; LUD: mixed), LUD pairs under
// chimera and FCFS, and two stand-alone runs.
func engineLongSpecs() []jobspec.Spec {
	var specs []jobspec.Spec
	// Stand-alone runs twice as long as the rest, so no other spec's
	// baseline shares their cache entry and they always execute.
	for _, b := range []string{"LUD", "SAD"} {
		specs = append(specs, jobspec.Solo(b).WithWindowUs(2*engineLongWindowUs))
	}
	for _, b := range []string{"BP", "FWT", "MUM", "LC", "KM", "SAD", "LUD"} {
		specs = append(specs, jobspec.Periodic(b, jobspec.PolicyChimera))
	}
	for _, b := range []string{"BP", "FWT", "MUM", "SAD"} {
		for _, p := range []string{jobspec.PolicyChimera, jobspec.PolicyFCFS} {
			specs = append(specs, jobspec.Pair("LUD", b, p))
		}
	}
	for i := range specs {
		if specs[i].WindowUs == 0 {
			specs[i] = specs[i].WithWindowUs(engineLongWindowUs)
		}
		specs[i].Normalize()
	}
	return specs
}

// newExecutor builds an Executor on a fresh result cache.
func newExecutor(parallelism int) (*workloads.Executor, *simjob.Cache, error) {
	r, err := workloads.NewRunner(units.FromMicroseconds(1000), units.FromMicroseconds(15), 1)
	if err != nil {
		return nil, nil, err
	}
	cache := simjob.NewCache()
	r.UsePool(simjob.NewPool(parallelism, cache))
	return workloads.NewExecutor(r), cache, nil
}

// setupExecutor is the engine-long and sweep set-up: the catalog load
// and an executor over a fresh pool.
func setupExecutor(procs int) (func(), error) {
	kernels.Load()
	if _, _, err := newExecutor(procs); err != nil {
		return nil, err
	}
	return func() {}, nil
}

// enginePass is one timed pass over the engine-long list.
type enginePass struct {
	wall, cpu time.Duration
	results   []workloads.SpecResult
	payloads  [][]byte
	stats     simjob.Stats
}

func runEnginePass(specs []jobspec.Spec, order []int, tr *tracer, out *outcome, completed *int, miss map[string][]float64) (*enginePass, error) {
	ex, cache, err := newExecutor(1)
	if err != nil {
		return nil, err
	}
	p := &enginePass{results: make([]workloads.SpecResult, len(specs)), payloads: make([][]byte, len(specs))}
	passSpan := tr.begin("bench.pass", 0, -1)
	start, c0 := time.Now(), cpuTime()
	for _, i := range order {
		sp := tr.begin("workloads.run", passSpan, int64(i))
		t0 := time.Now()
		res, executed, err := ex.Run(context.Background(), specs[i])
		d := time.Since(t0)
		tr.end(sp)
		out.attempted++
		if err != nil {
			out.fail("%s %s: %v", specs[i].Kind, specs[i].Benchmarks(), err)
			continue
		}
		if d > engineLongOpLimit {
			out.fail("%s %s took %v, over the %v limit", specs[i].Kind, specs[i].Benchmarks(), d, engineLongOpLimit)
		}
		*completed++
		if executed && miss != nil {
			miss[specs[i].Kind] = append(miss[specs[i].Kind], ms(d))
		}
		p.results[i] = res
		if p.payloads[i], err = json.Marshal(res); err != nil {
			return nil, err
		}
	}
	p.wall, p.cpu = time.Since(start), cpuTime()-c0
	tr.end(passSpan)
	p.stats = cache.Stats()
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func runEngineLong(cfg runConfig) (*outcome, error) {
	specs := engineLongSpecs()
	rnd := rand.New(rand.NewPCG(cfg.seed, 1))
	order := rnd.Perm(len(specs))
	sampled := order[rnd.IntN(len(order))]
	out := &outcome{}

	var passes []*enginePass
	completed := 0
	miss := map[string][]float64{}
	start := time.Now()
	for len(passes) == 0 || (cfg.tr == nil && time.Since(start).Seconds() < cfg.seconds) || (cfg.tr != nil && len(passes) < 3) {
		// The traced run makes two untraced passes, a warm-up and the
		// trace-overhead baseline, then one traced pass.
		tr := cfg.tr
		if len(passes) < 2 {
			tr = nil
		}
		p, err := runEnginePass(specs, order, tr, out, &completed, miss)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	out.set("peak_rss_mb", peakRSSMB())
	first := passes[0]
	var walls, cpus []float64
	for n, p := range passes {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		for i := range specs {
			if string(p.payloads[i]) != string(first.payloads[i]) {
				out.fail("pass %d: %s %s result differs from pass 0", n, specs[i].Kind, specs[i].Benchmarks())
			}
		}
		if p.stats.JobsRun != first.stats.JobsRun || p.stats.CacheHits != first.stats.CacheHits {
			out.fail("pass %d: simjob counters %d/%d differ from pass 0 %d/%d", n,
				p.stats.JobsRun, p.stats.CacheHits, first.stats.JobsRun, first.stats.CacheHits)
		}
	}
	checkEngineResults(out, specs, first.results)
	checkSampled(out, specs[sampled], first.payloads[sampled])

	out.set("wall_s", median(walls))
	out.set("cpu_s", median(cpus))
	out.set("slo_met_pct", sloPct(out, completed))
	out.set("sat_jobs_per_s", float64(len(specs))/median(walls))
	setSimMetrics(out, first.results, nil)

	if cfg.tr != nil {
		traced := passes[len(passes)-1]
		out.set("bench.trace_overhead_pct", 100*(traced.cpu.Seconds()/passes[1].cpu.Seconds()-1))
		out.set("simjob.jobs_run", float64(traced.stats.JobsRun))
		out.set("simjob.cache_hits", float64(traced.stats.CacheHits))
		out.set("simjob.hit_pct", hitPct(traced.stats))
		out.set("simjob.busy_pct", 100*traced.cpu.Seconds()/traced.wall.Seconds())
		for _, kind := range []string{jobspec.KindSolo, jobspec.KindPeriodic, jobspec.KindPair} {
			out.set("workloads.run_miss_ms."+kind, median(miss[kind]))
		}
		out.set("workloads.run_hit_us", 0)
		out.set("jobspec.prepare_ns", prepareNs(specs))
		if err := engineLayers(cfg.tr, out, specs, first.payloads); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sloPct is the share of attempted operations that finished correctly
// within their latency limit; every failure counts as a miss.
func sloPct(out *outcome, completed int) float64 {
	met := completed - len(out.problems)
	if met < 0 {
		met = 0
	}
	return 100 * float64(met) / float64(out.attempted)
}

func hitPct(s simjob.Stats) float64 {
	if s.JobsRun+s.CacheHits == 0 {
		return 0
	}
	return 100 * float64(s.CacheHits) / float64(s.JobsRun+s.CacheHits)
}

// checkEngineResults checks the ranges of the simulated outcomes.
func checkEngineResults(out *outcome, specs []jobspec.Spec, results []workloads.SpecResult) {
	for i, r := range results {
		switch {
		case r.Periodic != nil:
			p := r.Periodic
			if p.Periods <= 0 {
				out.fail("%s: no periods", specs[i].Bench)
			}
			if v := 100 * p.ViolationRate; v < 0 || v > 100 {
				out.fail("%s: violation rate %g%% out of range", specs[i].Bench, v)
			}
			if v := 100 * p.Overhead; v < 0 || v > 100 {
				out.fail("%s: overhead %g%% out of range", specs[i].Bench, v)
			}
		case r.Pair != nil:
			if !(r.Pair.ANTT > 0) || !(r.Pair.STP > 0) {
				out.fail("%s: ANTT %g / STP %g out of range", specs[i].Benchmarks(), r.Pair.ANTT, r.Pair.STP)
			}
		case specs[i].Kind == jobspec.KindSolo:
			if !(r.SoloRate > 0) {
				out.fail("%s: solo rate %g", specs[i].Bench, r.SoloRate)
			}
		}
	}
}

// checkSampled runs one spec twice more on fresh executors and directly
// on the engine: all must reproduce the timed pass's result.
func checkSampled(out *outcome, spec jobspec.Spec, want []byte) {
	for n := 0; n < 2; n++ {
		ex, _, err := newExecutor(1)
		if err != nil {
			out.fail("sampled spec: %v", err)
			return
		}
		res, _, err := ex.Run(context.Background(), spec)
		if err != nil {
			out.fail("sampled spec rerun: %v", err)
			continue
		}
		if got, _ := json.Marshal(res); string(got) != string(want) {
			out.fail("sampled %s %s: rerun %d differs", spec.Kind, spec.Benchmarks(), n)
		}
	}
	b := &rebuilder{cat: kernels.Load()}
	res, err := b.rebuild(spec)
	if err != nil {
		out.fail("sampled spec rebuild: %v", err)
		return
	}
	out.problems = append(out.problems, b.problems...)
	if got, _ := json.Marshal(res); string(got) != string(want) {
		out.fail("sampled %s %s: engine rebuild differs from the executor", spec.Kind, spec.Benchmarks())
	}
}

// setSimMetrics reports the simulated outcomes: the periodic task's
// deadline-met share and the benchmarks' throughput overhead over the
// chimera periodic results, and the geomean ANTT gain of chimera over
// FCFS across pairs present under both. keys[i] names the scenario a
// pair result belongs to, so twins match; nil keys match pairs by their
// benchmarks alone.
func setSimMetrics(out *outcome, results []workloads.SpecResult, keys []string) {
	var periods, violated float64
	var overheads []float64
	fcfs := map[string]float64{}
	chim := map[string]float64{}
	for i, r := range results {
		switch {
		case r.Periodic != nil && r.Periodic.Policy == "Chimera" && r.Periodic.Periods > 0:
			n := float64(r.Periodic.Periods)
			periods += n
			violated += r.Periodic.ViolationRate * n
			overheads = append(overheads, r.Periodic.Overhead)
		case r.Pair != nil:
			key := r.Pair.A + "+" + r.Pair.B
			if keys != nil {
				key = keys[i]
			}
			switch r.Pair.Policy {
			case "FCFS":
				fcfs[key] = r.Pair.ANTT
			case "Chimera":
				chim[key] = r.Pair.ANTT
			}
		}
	}
	var gains []float64
	for k, f := range fcfs {
		if c, ok := chim[k]; ok && c > 0 {
			gains = append(gains, f/c)
		}
	}
	met := 0.0
	if periods > 0 {
		met = 100 * (1 - violated/periods)
	}
	out.set("deadline_met_pct", met)
	out.set("overhead_pct", 100*mean(overheads))
	out.set("antt_gain_x", geomean(gains))
}

// prepareNs times Normalize+Validate+Hash per spec, the preparation
// every entry point applies to a spec.
func prepareNs(specs []jobspec.Spec) float64 {
	cat := kernels.Load()
	n := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for _, s := range specs {
			s.Normalize()
			if err := s.Validate(cat); err == nil {
				_ = s.Hash()
			}
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// engineLayers rebuilds every spec directly on the engine: once plain,
// timing CPU and allocation per simulated cycle, and twice instrumented
// (policy wrapper, counting recorder, metrics registry), checking that
// the work counters repeat exactly and the results match the executor's.
func engineLayers(tr *tracer, out *outcome, specs []jobspec.Spec, want [][]byte) error {
	cat := kernels.Load()
	plain := &rebuilder{cat: cat}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	c0 := cpuTime()
	for _, s := range specs {
		if _, err := plain.rebuild(s); err != nil {
			return err
		}
	}
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&ms1)
	simMs := float64(plain.counts.simCycles) / (units.CyclesPerMicrosecond * 1000)
	out.set("engine.ns_per_sim_cycle", float64(cpu.Nanoseconds())/float64(plain.counts.simCycles))
	out.set("engine.allocs_per_sim_ms", float64(ms1.Mallocs-ms0.Mallocs)/simMs)
	out.set("engine.bytes_per_sim_ms", float64(ms1.TotalAlloc-ms0.TotalAlloc)/simMs)

	type counts struct{ events, selects, requests, rebalances int64 }
	var got [2]counts
	var selectPct float64
	var selectTime time.Duration
	for run := 0; run < 2; run++ {
		b := &rebuilder{cat: cat, instrumented: true, reg: metrics.NewRegistry(), tr: tr}
		b.parent = tr.begin("bench.rebuild", 0, -1)
		c0 := cpuTime()
		for i, s := range specs {
			res, err := b.rebuild(s)
			if err != nil {
				return err
			}
			if p, _ := json.Marshal(res); string(p) != string(want[i]) {
				out.fail("rebuild %d: %s %s differs from the executor's result", run, s.Kind, s.Benchmarks())
			}
		}
		cpu := cpuTime() - c0
		tr.end(b.parent)
		out.problems = append(out.problems, b.problems...)
		got[run] = counts{b.counts.events, b.counts.selects,
			b.reg.Counter(engine.MetricRequests).Value(), b.reg.Counter(engine.MetricRebalances).Value()}
		selectPct = 100 * b.counts.selectTime.Seconds() / cpu.Seconds()
		selectTime = b.counts.selectTime
	}
	if got[0] != got[1] {
		out.fail("engine work counters differ between identical rebuilds: %+v vs %+v", got[0], got[1])
	}
	c := got[1]
	out.set("engine.events_per_sim_ms", float64(c.events)/simMs)
	out.set("engine.requests", float64(c.requests))
	out.set("engine.rebalances", float64(c.rebalances))
	out.set("policy.select_calls", float64(c.selects))
	if c.selects > 0 {
		out.set("policy.select_ns_mean", float64(selectTime.Nanoseconds())/float64(c.selects))
	} else {
		out.set("policy.select_ns_mean", 0)
	}
	out.set("policy.select_pct", selectPct)
	fmt.Fprintf(os.Stderr, "engine rebuild: %.0f sim ms, %d events, %d requests, %d selects\n", simMs, c.events, c.requests, c.selects)
	return nil
}
