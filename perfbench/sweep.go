package main

import (
	"bytes"
	"fmt"
	"time"

	"chimera/internal/experiments"
	"chimera/internal/simjob"
	"chimera/internal/workloads"
)

// sweepOpLimit is the latency limit slo_met_pct applies to one exhibit.
const sweepOpLimit = 60 * time.Second

// sweepPass is one pass of every registered exhibit at QuickScale on a
// fresh result cache, the work of `chimerasim -quick all`.
type sweepPass struct {
	wall, cpu time.Duration
	tables    []byte
	exhibits  map[string]float64 // seconds per exhibit
	stats     simjob.Stats
	cache     *simjob.Cache
}

func runSweepPass(procs int, tr *tracer, out *outcome, completed *int) (*sweepPass, error) {
	scale := experiments.QuickScale()
	scale.Parallelism = procs
	scale.Cache = simjob.NewCache()
	p := &sweepPass{exhibits: make(map[string]float64), cache: scale.Cache}
	var buf bytes.Buffer
	passSpan := tr.begin("bench.pass", 0, -1)
	start, c0 := time.Now(), cpuTime()
	for i, name := range experiments.Names() {
		sp := tr.begin("experiments."+name, passSpan, int64(i))
		t0 := time.Now()
		tables, err := experiments.Run(name, scale)
		d := time.Since(t0)
		tr.end(sp)
		out.attempted++
		if err != nil {
			out.fail("%s: %v", name, err)
			continue
		}
		if d > sweepOpLimit {
			out.fail("%s took %v, over the %v limit", name, d, sweepOpLimit)
		}
		*completed++
		p.exhibits[name] = d.Seconds()
		for _, t := range tables {
			if err := t.Render(&buf); err != nil {
				return nil, err
			}
			buf.WriteByte('\n')
		}
	}
	p.wall, p.cpu = time.Since(start), cpuTime()-c0
	tr.end(passSpan)
	p.stats = scale.Cache.Stats()
	p.tables = buf.Bytes()
	return p, nil
}

func runSweep(cfg runConfig) (*outcome, error) {
	out := &outcome{}
	var passes []*sweepPass
	completed := 0
	start := time.Now()
	// The untraced run makes a warm-up pass and then timed passes, at
	// least two and more while --seconds lasts. A pass takes about half
	// of a 20-second run; timing warm passes only keeps the slower cold
	// pass out of the medians whatever the number of passes.
	// The traced run makes two untraced passes, a warm-up and the
	// trace-overhead baseline, then one traced pass.
	for len(passes) < 3 || (cfg.tr == nil && time.Since(start).Seconds() < cfg.seconds) {
		tr := cfg.tr
		if len(passes) < 2 {
			tr = nil
		}
		p, err := runSweepPass(cfg.procs, tr, out, &completed)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if len(passes) == 1 {
			// One sweep's peak, as `chimerasim -quick all` reaches it;
			// later passes start among the garbage of earlier ones.
			out.set("peak_rss_mb", peakRSSMB())
		}
	}
	first := passes[0]
	var walls, cpus []float64
	for n, p := range passes {
		if n > 0 {
			walls = append(walls, p.wall.Seconds())
			cpus = append(cpus, p.cpu.Seconds())
		}
		if !bytes.Equal(p.tables, first.tables) {
			out.fail("pass %d: rendered tables differ from pass 0", n)
		}
		if p.stats.JobsRun != first.stats.JobsRun || p.stats.CacheHits != first.stats.CacheHits {
			out.fail("pass %d: simjob counters %d/%d differ from pass 0 %d/%d", n,
				p.stats.JobsRun, p.stats.CacheHits, first.stats.JobsRun, first.stats.CacheHits)
		}
	}
	if len(first.tables) == 0 {
		out.fail("the sweep rendered no table")
	}

	out.set("wall_s", median(walls))
	out.set("cpu_s", median(cpus))
	out.set("slo_met_pct", sloPct(out, completed))
	out.set("sat_jobs_per_s", float64(first.stats.JobsRun)/median(walls))
	if err := sweepSimMetrics(out, first.cache, cfg.procs); err != nil {
		return nil, err
	}

	if cfg.tr != nil {
		traced := passes[len(passes)-1]
		out.set("bench.trace_overhead_pct", 100*(traced.cpu.Seconds()/passes[1].cpu.Seconds()-1))
		out.set("simjob.jobs_run", float64(traced.stats.JobsRun))
		out.set("simjob.cache_hits", float64(traced.stats.CacheHits))
		out.set("simjob.hit_pct", hitPct(traced.stats))
		out.set("simjob.busy_pct", 100*traced.cpu.Seconds()/(traced.wall.Seconds()*float64(cfg.procs)))
		for name, s := range traced.exhibits {
			out.set("experiments."+name+"_s", s)
		}
		r, err := workloads.NewRunner(experiments.QuickScale().PeriodicWindow, experiments.Constraint15, 1)
		if err != nil {
			return nil, err
		}
		out.set("jobspec.prepare_ns", prepareNs(experiments.PeriodicSweepSpecs(r)))
	}
	return out, nil
}

// sweepSimMetrics reads the sweep's own §4.1 grid (Figures 6 and 7 at
// 15 µs) and LUD pair grid (Figure 10) back from the pass's result cache
// and reports the simulated outcomes; every lookup must be a cache hit.
func sweepSimMetrics(out *outcome, cache *simjob.Cache, procs int) error {
	scale := experiments.QuickScale()
	before := cache.Stats().JobsRun
	pr, err := workloads.NewRunner(scale.PeriodicWindow, experiments.Constraint15, scale.Seed)
	if err != nil {
		return err
	}
	pr.UsePool(simjob.NewPool(procs, cache))
	grid, err := experiments.RunPeriodicSweep(pr)
	if err != nil {
		return err
	}
	ar, err := workloads.NewRunner(scale.PairWindow, experiments.Constraint30, scale.Seed)
	if err != nil {
		return err
	}
	ar.UsePool(simjob.NewPool(procs, cache))
	pairs, err := experiments.RunPairSweep(ar)
	if err != nil {
		return err
	}
	if after := cache.Stats().JobsRun; after != before {
		out.fail("reading the sweep's grids back ran %d new simulations", after-before)
	}
	var results []workloads.SpecResult
	for _, row := range grid.Results {
		for i := range row {
			results = append(results, workloads.SpecResult{Periodic: &row[i]})
		}
	}
	for i := range pairs.FCFS {
		results = append(results, workloads.SpecResult{Pair: &pairs.FCFS[i]})
		for j := range pairs.Results[i] {
			results = append(results, workloads.SpecResult{Pair: &pairs.Results[i][j]})
		}
	}
	if len(results) == 0 {
		return fmt.Errorf("sweep grids are empty")
	}
	setSimMetrics(out, results, nil)
	return nil
}
