package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"chimera/internal/cluster"
	"chimera/internal/engine"
	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/server"
	"chimera/internal/server/client"
	"chimera/internal/units"
	"chimera/internal/workloads"
)

// The service and fleet load. offeredRate is the open-loop Poisson rate,
// about half the fleet's saturation throughput when the benchmark was
// defined, so both service workloads run below saturation at one load;
// latencyLimit is the limit slo_met_pct applies. Both are absolute so
// that runs on two commits see the same load and the same limit.
// BENCHMARK.json states them too.
const (
	offeredRate  = 200.0 // jobs/s
	latencyLimit = 100 * time.Millisecond
	// The run is rounds rounds, each an open-loop window followed by a
	// closed-loop batch of closedJobs jobs; the open-loop windows last
	// openShare of --seconds in all.
	rounds     = 6
	openShare  = 0.8
	closedJobs = 500
	// repeatShare of the open-loop jobs repeat an earlier spec exactly;
	// tracedShare are traced periodic jobs whose trace is downloaded.
	repeatShare = 0.25
	tracedShare = 0.03
	// pollEvery spaces the status listings that collect finished jobs
	// while the daemon still retains them.
	pollEvery      = 2 * time.Second
	finalPollEvery = 100 * time.Millisecond
)

// system is a chimerad (or a fleet) behind loopback listeners, run in
// the daemon process.
type system struct {
	base    string
	servers []*server.Server
	front   *cluster.Front
	https   []*http.Server
	wg      sync.WaitGroup
}

// listen serves h on a fresh loopback port.
func (s *system) listen(h http.Handler, ln net.Listener) {
	hs := &http.Server{Handler: h}
	s.https = append(s.https, hs)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
}

func loopback() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// startService boots one chimerad with procs workers.
func startService(procs int) (*system, error) {
	s := &system{}
	ln, url, err := loopback()
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Workers: procs, QueueCap: 4096})
	s.servers = append(s.servers, srv)
	s.listen(srv.Handler(), ln)
	s.base = url
	return s, s.waitHealthy()
}

// startFleet boots two peer-cache-armed replicas with one worker each and
// a front over them.
func startFleet(int) (*system, error) {
	s := &system{}
	var lns []net.Listener
	var urls []string
	for i := 0; i < 2; i++ {
		ln, url, err := loopback()
		if err != nil {
			s.close()
			return nil, err
		}
		lns = append(lns, ln)
		urls = append(urls, url)
	}
	for i := range urls {
		srv := server.New(server.Config{
			Workers:  1,
			QueueCap: 4096,
			Cluster: &cluster.Node{
				Self:  urls[i],
				Ring:  cluster.NewRing(urls, 0),
				Fetch: cluster.NewHTTPFetch(&http.Client{Timeout: 2 * time.Second}),
			},
		})
		s.servers = append(s.servers, srv)
		s.listen(srv.Handler(), lns[i])
	}
	ln, url, err := loopback()
	if err != nil {
		s.close()
		return nil, err
	}
	s.front = cluster.NewFront(cluster.FrontConfig{Replicas: urls})
	s.listen(s.front.Handler(), ln)
	s.base = url
	return s, s.waitHealthy()
}

// waitHealthy polls /healthz until it answers 200.
func (s *system) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			s.close()
			return fmt.Errorf("%s/healthz not ready: %v", s.base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close stops the listeners and the servers and waits for both.
func (s *system) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, hs := range s.https {
		_ = hs.Shutdown(ctx) // best effort: the process is about to report
	}
	for _, srv := range s.servers {
		_ = srv.Shutdown(ctx)
	}
	s.wg.Wait()
}

func setupService(procs int) (func(), error) {
	kernels.Load()
	s, err := startService(procs)
	if err != nil {
		return nil, err
	}
	return s.close, nil
}

func setupFleet(procs int) (func(), error) {
	kernels.Load()
	s, err := startFleet(procs)
	if err != nil {
		return nil, err
	}
	return s.close, nil
}

// mixBenches are the service mix's benchmarks: long idempotent blocks
// (KM, MUM, LC), many small idempotent blocks (SAD, ST) and a mixed one
// (LUD). Benchmarks with short non-idempotent blocks (BP, BT, FWT, HW)
// cost tens of milliseconds per job and are left to engine-long, so
// service jobs stay short and HTTP, JSON and admission stay visible.
var mixBenches = []string{"LUD", "SAD", "KM", "MUM", "LC", "ST"}

// mixGroups is one block of the job mix. Each group is one or two specs
// sharing a simulation seed: a pair runs as chimera/FCFS twins so the
// mix carries its own ANTT comparison. Periodic jobs use 2 ms windows:
// the periodic task's first instance is only judged at 2 ms.
func mixGroups() [][]jobspec.Spec {
	var groups [][]jobspec.Spec
	for _, b := range mixBenches {
		for _, w := range []float64{200, 600, 1000} {
			groups = append(groups, []jobspec.Spec{jobspec.Solo(b).WithWindowUs(w)})
		}
		groups = append(groups, []jobspec.Spec{jobspec.Periodic(b, jobspec.PolicyChimera).WithWindowUs(2000)})
		if b == "LUD" {
			continue
		}
		for _, w := range []float64{200, 600, 1000} {
			groups = append(groups, []jobspec.Spec{
				jobspec.Pair("LUD", b, jobspec.PolicyChimera).WithWindowUs(w),
				jobspec.Pair("LUD", b, jobspec.PolicyFCFS).WithWindowUs(w),
			})
		}
	}
	return groups
}

// plannedJob is one job of the generated load.
type plannedJob struct {
	spec jobspec.Spec
	// at is the scheduled send offset within the open-loop plan.
	at     time.Duration
	repeat bool
}

// mixer draws the job stream: blocks of every group in a seeded order,
// each group with a fresh simulation seed, so every run's distinct jobs
// have the same composition and only seeds and order vary.
type mixer struct {
	rnd    *rand.Rand
	groups [][]jobspec.Spec
	queue  []jobspec.Spec
}

func newMixer(seed, tag uint64) *mixer {
	return &mixer{rnd: rand.New(rand.NewPCG(seed, tag)), groups: mixGroups()}
}

// simSeed derives a job's simulation seed (never 0, which means default).
func (m *mixer) simSeed() uint64 {
	return 1 + m.rnd.Uint64()%1_000_000_000
}

func (m *mixer) next() jobspec.Spec {
	if len(m.queue) == 0 {
		for _, g := range m.rnd.Perm(len(m.groups)) {
			seed := m.simSeed()
			for _, s := range m.groups[g] {
				m.queue = append(m.queue, s.WithSeed(seed))
			}
		}
	}
	s := m.queue[0]
	m.queue = m.queue[1:]
	return s.WithPriority(m.rnd.IntN(2))
}

// traced returns a traced periodic job.
func (m *mixer) traced() jobspec.Spec {
	b := mixBenches[m.rnd.IntN(len(mixBenches))]
	return jobspec.Periodic(b, jobspec.PolicyChimera).WithWindowUs(2000).WithSeed(m.simSeed()).WithTrace()
}

// openLoopPlan is the open-loop schedule: n jobs with exponential gaps.
func openLoopPlan(m *mixer, n int) []plannedJob {
	jobs := make([]plannedJob, 0, n)
	var originals []int
	var at time.Duration
	for i := 0; i < n; i++ {
		at += time.Duration(m.rnd.ExpFloat64() / offeredRate * float64(time.Second))
		r := m.rnd.Float64()
		var j plannedJob
		switch {
		case r < repeatShare && len(originals) > 0:
			j = plannedJob{spec: jobs[originals[m.rnd.IntN(len(originals))]].spec, repeat: true}
		case r < repeatShare+tracedShare:
			j = plannedJob{spec: m.traced()}
		default:
			j = plannedJob{spec: m.next()}
			originals = append(originals, i)
		}
		j.at = at
		jobs = append(jobs, j)
	}
	return jobs
}

// jobRecord is what the benchmark learns about one submitted job.
type jobRecord struct {
	plannedJob
	id string
	// due is the scheduled send time (open loop); sent and accepted
	// bracket the client-side POST.
	due, sent, accepted time.Time
	status              server.JobStatus
	done                bool
	err                 error
	traceMs             float64
	traceOK             bool
}

func runService(cfg runConfig) (*outcome, error) { return driveService(cfg, "service") }

func runFleet(cfg runConfig) (*outcome, error) { return driveService(cfg, "fleet") }

// driveService starts the daemon process for kind, drives it, stops it
// and reports.
func driveService(cfg runConfig, kind string) (*outcome, error) {
	d, err := startDaemon(kind, cfg.tr != nil)
	if err != nil {
		return nil, err
	}
	out, check, err := driveDaemon(cfg, d)
	rep, serr := d.stop()
	if err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	if cfg.tr != nil {
		daemonLayers(out, rep, check, d.fleet)
	}
	return out, nil
}

// driveDaemon runs the rounds against a ready daemon and checks every
// result.
func driveDaemon(cfg runConfig, d *daemon) (*outcome, *checkTiming, error) {
	out := &outcome{}
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: cfg.procs, MaxIdleConnsPerHost: cfg.procs}}
	defer hc.CloseIdleConnections()
	cl := client.New(d.base, client.WithHTTPClient(hc), client.WithMaxAttempts(1))

	// The run alternates rounds of an open-loop window and a closed-loop
	// batch, so a transient slowdown of the host lands in one round;
	// wall_s and sat_jobs_per_s are medians over rounds. cpu_s is the
	// daemon's CPU over every round: the whole run's fixed work, whose
	// total moves less with the host's load than any one phase does,
	// because idle cores spin and run GC workers in some phases and not
	// in others.
	n := int(math.Round(offeredRate * openShare * cfg.seconds))
	if n < rounds {
		n = rounds
	}
	plan := openLoopPlan(newMixer(cfg.seed, 1), n)
	closedMix := newMixer(cfg.seed, 2)
	var open, closed []*jobRecord
	var walls, cpus []float64
	c0 := d.cpu()
	for r := 0; r < rounds; r++ {
		recs, err := openLoop(cl, plan[r*n/rounds:(r+1)*n/rounds], cfg)
		if err != nil {
			return nil, nil, err
		}
		open = append(open, recs...)
		batch, wall, cpu := closedLoop(cl, d, closedMix, closedJobs, cfg.procs, nil)
		closed = append(closed, batch...)
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
	}
	runCPU := d.cpu() - c0
	var overhead float64
	if cfg.tr != nil {
		// The traced run adds one closed batch, traced, on fresh specs,
		// for the trace-overhead estimate.
		batch, _, cpu := closedLoop(cl, d, closedMix, closedJobs, cfg.procs, cfg.tr)
		closed = append(closed, batch...)
		overhead = 100 * (cpu.Seconds()/median(cpus) - 1)
	}

	out.set("peak_rss_mb", d.peakRSSMB())
	all := append(append([]*jobRecord(nil), open...), closed...)
	out.attempted = len(all)
	for _, j := range all {
		switch {
		case j.err != nil:
			out.fail("job %s (%s %s): %v", j.id, j.spec.Kind, j.spec.Benchmarks(), j.err)
		case !j.done:
			out.fail("job %s (%s %s) ended %s: %s", j.id, j.spec.Kind, j.spec.Benchmarks(), j.status.State, j.status.Error)
		case j.spec.Trace && !j.traceOK:
			out.fail("job %s: trace download failed", j.id)
		}
	}
	wrong, check, err := checkResults(all, cfg.procs, cfg.tr)
	if err != nil {
		return nil, nil, err
	}
	bad := make(map[*jobRecord]bool)
	for _, j := range wrong {
		out.fail("job %s (%s %s seed %d): payload differs from the in-process executor", j.id, j.spec.Kind, j.spec.Benchmarks(), j.spec.Seed)
		bad[j] = true
	}
	met := 0
	for _, j := range open {
		if j.done && !bad[j] && j.status.FinishedAt.Sub(j.due) <= latencyLimit {
			met++
		}
	}

	out.set("wall_s", median(walls))
	out.set("cpu_s", runCPU.Seconds())
	out.set("slo_met_pct", 100*float64(met)/float64(len(open)))
	out.set("sat_jobs_per_s", float64(closedJobs)/median(walls))
	var sims []workloads.SpecResult
	var keys []string
	for _, j := range all {
		if j.repeat || j.spec.Trace || !j.done {
			continue
		}
		var res server.JobResult
		if err := json.Unmarshal(j.status.Result, &res); err != nil {
			continue // counted by the payload check
		}
		sims = append(sims, workloads.SpecResult{Kind: res.Kind, SoloRate: res.SoloRate, Periodic: res.Periodic, Pair: res.Pair})
		keys = append(keys, fmt.Sprintf("%s/%g/%d", j.spec.Benchmarks(), j.spec.WindowUs, j.spec.Seed))
	}
	setSimMetrics(out, sims, keys)

	if cfg.tr != nil {
		serviceLayers(out, d.fleet, open, check, overhead, cfg)
	}
	return out, check, nil
}

// openLoop sends the plan on schedule from procs senders and collects
// every job's terminal status while the run goes on.
func openLoop(cl *client.Client, plan []plannedJob, cfg runConfig) ([]*jobRecord, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	recs := make([]*jobRecord, len(plan))
	for i := range plan {
		recs[i] = &jobRecord{plannedJob: plan[i]}
	}
	col := &collector{
		cl:        cl,
		recs:      recs,
		submitted: make(chan int, len(recs)), // one send per record; senders never block on it
		byID:      make(map[string]*jobRecord),
		deadline:  time.Now().Add(time.Duration(cfg.seconds*float64(time.Second)) + 60*time.Second),
	}
	var colWG sync.WaitGroup
	colWG.Add(1)
	go func() {
		defer colWG.Done()
		col.run(ctx)
	}()

	todo := make(chan int)
	var senders sync.WaitGroup
	start := time.Now()
	// Offsets restart at the window's first job.
	var base time.Duration
	if len(plan) > 0 {
		base = plan[0].at
	}
	for _, r := range recs {
		r.due = start.Add(r.at - base)
	}
	for w := 0; w < cfg.procs; w++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range todo {
				r := recs[i]
				r.sent = time.Now()
				st, err := cl.Submit(ctx, r.spec)
				r.accepted = time.Now()
				r.id, r.err = st.ID, err
				col.submitted <- i
			}
		}()
	}
	for i := range plan {
		if d := time.Until(recs[i].due); d > 0 {
			time.Sleep(d)
		}
		todo <- i
	}
	close(todo)
	senders.Wait()
	close(col.submitted)
	colWG.Wait()
	return recs, col.err
}

// collector lists job statuses every pollEvery while the open loop runs,
// because the daemon keeps only its most recent terminal jobs, and
// downloads the trace of every finished traced job. It owns a record
// from the moment its index arrives on submitted.
type collector struct {
	cl        *client.Client
	recs      []*jobRecord
	submitted chan int
	byID      map[string]*jobRecord
	// open counts admitted jobs not yet seen terminal.
	open     int
	deadline time.Time
	err      error
}

func (c *collector) run(ctx context.Context) {
	sending := true
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case i, ok := <-c.submitted:
			if !ok {
				// Every job is sent: collect the stragglers promptly.
				sending, c.submitted = false, nil
				tick.Reset(finalPollEvery)
			} else if r := c.recs[i]; r.err == nil {
				c.byID[r.id] = r
				c.open++
			}
			continue
		case <-tick.C:
		}
		list, err := c.cl.List(ctx)
		if err != nil {
			c.err = fmt.Errorf("listing jobs: %w", err)
			return
		}
		c.absorb(ctx, list)
		if !sending && c.open == 0 {
			return
		}
		if time.Now().After(c.deadline) {
			for _, r := range c.byID {
				if !r.status.State.Terminal() {
					r.err = errors.New("no terminal status before the collection deadline")
				}
			}
			return
		}
	}
}

func (c *collector) absorb(ctx context.Context, list []server.JobStatus) {
	for _, st := range list {
		r := c.byID[st.ID]
		if r == nil || !st.State.Terminal() || r.status.State.Terminal() {
			continue
		}
		c.open--
		r.status = st
		r.done = st.State == server.StateDone
		if r.done && r.spec.Trace {
			t0 := time.Now()
			var buf bytes.Buffer
			err := c.cl.Trace(ctx, st.ID, &buf)
			r.traceMs = ms(time.Since(t0))
			r.traceOK = err == nil && buf.Len() > 0 && json.Valid(buf.Bytes())
		}
	}
}

// closedLoop runs n distinct jobs from procs clients, each submitting
// its next job when the previous one finished, and returns the records,
// the phase's wall time and the daemon's CPU time over it.
func closedLoop(cl *client.Client, d *daemon, m *mixer, n, procs int, tr *tracer) ([]*jobRecord, time.Duration, time.Duration) {
	recs := make([]*jobRecord, n)
	for i := range recs {
		recs[i] = &jobRecord{plannedJob: plannedJob{spec: m.next()}}
	}
	todo := make(chan int, n) // filled once, before the clients start
	for i := range recs {
		todo <- i
	}
	close(todo)
	phase := tr.begin("bench.closed", 0, -1)
	start, c0 := time.Now(), d.cpu()
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range todo {
				r := recs[i]
				r.sent = time.Now()
				st, err := cl.SubmitWait(context.Background(), r.spec)
				r.accepted = time.Now()
				tr.add("server.submit_wait", phase, -1, r.sent, r.accepted)
				if err != nil {
					r.err = err
					continue
				}
				r.id, r.status, r.done = st.ID, st, st.State == server.StateDone
			}
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(start), d.cpu()-c0
	tr.end(phase)
	return recs, wall, cpu
}

// checkTiming is what the result check measured about the executor.
type checkTiming struct {
	miss               map[string][]float64 // ms per executed run, by kind
	hit                []float64            // µs per cache hit
	jobsRun, cacheHits int64
}

// checkResults recomputes every done job in process and returns the jobs
// whose payload differs. Plain jobs run through a fresh
// workloads.Executor in submission order, repeats included, so its
// cache sees the daemon's lookups; traced jobs run through
// workloads.RecordContext, as the daemon runs them.
func checkResults(recs []*jobRecord, procs int, tr *tracer) ([]*jobRecord, *checkTiming, error) {
	ex, cache, err := newExecutor(procs)
	if err != nil {
		return nil, nil, err
	}
	timing := &checkTiming{miss: map[string][]float64{}}
	var mu sync.Mutex
	var wrong []*jobRecord
	todo := make(chan *jobRecord)
	span := tr.begin("bench.check", 0, -1)
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range todo {
				sp := tr.begin("workloads.run", span, -1)
				t0 := time.Now()
				want, executed, err := expectedPayload(ex, r.spec)
				d := time.Since(t0)
				tr.end(sp)
				mu.Lock()
				if err != nil || !bytes.Equal(want, r.status.Result) {
					wrong = append(wrong, r)
				}
				if !r.spec.Trace {
					if executed {
						timing.miss[r.spec.Kind] = append(timing.miss[r.spec.Kind], ms(d))
					} else {
						timing.hit = append(timing.hit, float64(d.Nanoseconds())/1e3)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, r := range recs {
		if r.done {
			todo <- r
		}
	}
	close(todo)
	wg.Wait()
	tr.end(span)
	st := cache.Stats()
	timing.jobsRun, timing.cacheHits = st.JobsRun, st.CacheHits
	return wrong, timing, nil
}

// expectedPayload builds the server.JobResult payload the daemon should
// have served for spec.
func expectedPayload(ex *workloads.Executor, spec jobspec.Spec) ([]byte, bool, error) {
	spec.Normalize()
	if spec.Trace {
		policy, _, err := jobspec.ParsePolicy(spec.Policy)
		if err != nil {
			return nil, false, err
		}
		rec, err := workloads.RecordContext(context.Background(), workloads.RecordOptions{
			Bench:      spec.Bench,
			Window:     units.FromMicroseconds(spec.WindowUs),
			Constraint: units.FromMicroseconds(spec.ConstraintUs),
			Seed:       spec.Seed,
			Policy:     policy,
			Estimator:  spec.Estimator,
		})
		if err != nil {
			return nil, true, err
		}
		p, err := json.Marshal(server.JobResult{Kind: spec.Kind, Trace: &server.TraceInfo{
			Events: len(rec.Events), Periods: rec.Periods, Violations: rec.Violations, Requests: rec.Requests,
		}})
		return p, true, err
	}
	res, executed, err := ex.Run(context.Background(), spec)
	if err != nil {
		return nil, executed, err
	}
	p, err := json.Marshal(server.JobResult{Kind: res.Kind, SoloRate: res.SoloRate, Periodic: res.Periodic, Pair: res.Pair})
	return p, executed, err
}

// serviceLayers reports the traced run's service and fleet layer
// metrics and the job spans.
func serviceLayers(out *outcome, fleet bool, open []*jobRecord, check *checkTiming, overhead float64, cfg runConfig) {
	tr := cfg.tr
	var lat, submit, queue, run, front, lag, export []float64
	deduped, done := 0, 0
	for i, j := range open {
		if j.err != nil {
			continue
		}
		lag = append(lag, ms(j.sent.Sub(j.due)))
		submit = append(submit, ms(j.accepted.Sub(j.sent)))
		if j.done && j.status.FinishedAt != nil {
			lat = append(lat, ms(j.status.FinishedAt.Sub(j.due)))
		}
		if !j.done || j.status.StartedAt == nil || j.status.FinishedAt == nil {
			continue
		}
		done++
		if j.status.Deduped {
			deduped++
		}
		st := j.status
		queue = append(queue, ms(st.StartedAt.Sub(st.SubmittedAt)))
		run = append(run, ms(st.FinishedAt.Sub(*st.StartedAt)))
		root := tr.add("bench.job", 0, int64(i), j.sent, *st.FinishedAt)
		tr.add("server.submit", root, int64(i), j.sent, j.accepted)
		if fleet {
			front = append(front, ms(st.SubmittedAt.Sub(j.sent)))
			tr.add("cluster.front", root, int64(i), j.sent, st.SubmittedAt)
		}
		tr.add("server.queue", root, int64(i), st.SubmittedAt, *st.StartedAt)
		tr.add("server.run", root, int64(i), *st.StartedAt, *st.FinishedAt)
		if j.spec.Trace {
			export = append(export, j.traceMs)
		}
	}
	out.set("latency.p50_ms", percentile(lat, 50))
	out.set("latency.p99_ms", percentile(lat, 99))
	out.set("bench.gen_lag_ms", percentile(lag, 99))
	out.set("server.submit_ms.p50", percentile(submit, 50))
	out.set("server.submit_ms.p99", percentile(submit, 99))
	out.set("server.queue_ms.p50", percentile(queue, 50))
	out.set("server.queue_ms.p99", percentile(queue, 99))
	out.set("server.run_ms.p50", percentile(run, 50))
	out.set("server.run_ms.p99", percentile(run, 99))
	if done > 0 {
		out.set("server.deduped_pct", 100*float64(deduped)/float64(done))
	}
	out.set("trace.export_ms", percentile(export, 50))
	out.set("bench.trace_overhead_pct", overhead)

	for _, kind := range []string{jobspec.KindSolo, jobspec.KindPeriodic, jobspec.KindPair} {
		out.set("workloads.run_miss_ms."+kind, median(check.miss[kind]))
	}
	out.set("workloads.run_hit_us", median(check.hit))
	var specs []jobspec.Spec
	for _, j := range open {
		specs = append(specs, j.spec)
	}
	out.set("jobspec.prepare_ns", prepareNs(specs))
	if fleet {
		out.set("cluster.front_ms", percentile(front, 50))
	}
}

// daemonLayers reports the daemon's counters and CPU shares, and checks
// that a single daemon's simjob counters equal the in-process replay's.
func daemonLayers(out *outcome, rep *daemonReport, check *checkTiming, fleet bool) {
	c := rep.Counters
	for k, v := range rep.CPUShares {
		out.set(k, v)
	}
	out.set("server.rejected", float64(c[server.MetricJobsRejected]))
	out.set("server.shed", float64(c[server.MetricShedHopeless]))
	out.set("engine.requests", float64(c[engine.MetricRequests]))
	out.set("engine.rebalances", float64(c[engine.MetricRebalances]))
	jobsRun, hits := c["simjob/jobs_run"], c["simjob/cache_hits"]
	out.set("simjob.jobs_run", float64(jobsRun))
	out.set("simjob.cache_hits", float64(hits))
	if jobsRun+hits > 0 {
		out.set("simjob.hit_pct", 100*float64(hits)/float64(jobsRun+hits))
	}
	if !fleet && (jobsRun != check.jobsRun || hits != check.cacheHits) {
		out.fail("daemon simjob counters %d/%d differ from the in-process replay's %d/%d", jobsRun, hits, check.jobsRun, check.cacheHits)
	}
	if fleet {
		out.set("cluster.routed", float64(c[cluster.MetricFrontRouted]))
		out.set("cluster.cache_hits", float64(c[cluster.MetricFrontCacheHits]))
		out.set("cluster.failovers", float64(c[cluster.MetricFrontFailovers]))
		out.set("cluster.peer_hits", float64(c[server.MetricPeerHits]))
	}
}
