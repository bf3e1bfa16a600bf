// Command servesmoke is the end-to-end smoke test behind `make
// serve-smoke`: it boots a real chimerad on a random port, drives the
// full client path — submit, poll to completion, fetch the result,
// cancel a second job, scrape /metrics — then sends SIGTERM and
// verifies the daemon drains gracefully (exit 0). A second leg reboots
// the daemon with the fault plane armed (-fault-* flags) and verifies
// the retrying client still gets every result while the resilience
// counters surface on /metrics. Any failure exits non-zero with a
// diagnostic.
//
// Usage:
//
//	servesmoke -bin ./chimerad
//
// Flags:
//
//	-bin PATH     chimerad binary to boot (required)
//	-timeout D    overall smoke budget (default 2m)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"chimera/internal/jobspec"
	"chimera/internal/server"
	"chimera/internal/server/client"
	"chimera/internal/smoke"
)

func main() {
	bin := flag.String("bin", "", "chimerad binary to boot (required)")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall smoke budget")
	flag.Parse()
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "servesmoke: -bin is required")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := run(ctx, *bin); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	if err := runChaos(ctx, *bin); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: FAIL (chaos leg): %v\n", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: PASS")
}

// bootDaemon starts bin on a random port with the given extra flags.
func bootDaemon(ctx context.Context, bin string, extra ...string) (*smoke.Daemon, error) {
	return smoke.Boot(ctx, "chimerad", bin, append([]string{"-addr", "127.0.0.1:0"}, extra...)...)
}

// run executes the fault-free smoke sequence against one daemon
// instance.
func run(ctx context.Context, bin string) error {
	d, err := bootDaemon(ctx, bin, "-workers", "2", "-queue", "16", "-cache", "64")
	if err != nil {
		return err
	}
	defer d.Kill()
	fmt.Printf("servesmoke: daemon up at %s\n", d.Addr)

	c := client.New("http://" + d.Addr)

	// Submit a small periodic job and poll it to completion. Specs are
	// built with the jobspec builders — the same construction path as
	// production callers.
	st, err := c.Submit(ctx, jobspec.Periodic("SAD", "").WithWindowUs(2000))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fin, err := c.Await(ctx, st.ID, 25*time.Millisecond)
	if err != nil {
		return fmt.Errorf("await %s: %w", st.ID, err)
	}
	if fin.State != server.StateDone {
		return fmt.Errorf("job %s finished %s: %s", st.ID, fin.State, fin.Error)
	}
	payload, err := c.Result(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("result %s: %w", st.ID, err)
	}
	var res server.JobResult
	if err := json.Unmarshal(payload, &res); err != nil {
		return fmt.Errorf("result payload: %w", err)
	}
	if res.Periodic == nil || res.Periodic.Periods == 0 {
		return fmt.Errorf("periodic job evaluated no periods: %+v", res)
	}
	fmt.Printf("servesmoke: job %s done, %d periods, violation rate %.3f\n",
		st.ID, res.Periodic.Periods, res.Periodic.ViolationRate)

	// Cancel a long-running job and confirm the engine stopped.
	long, err := c.Submit(ctx, jobspec.Periodic("SAD", "").WithWindowUs(60e6))
	if err != nil {
		return fmt.Errorf("submit long: %w", err)
	}
	if err := c.Cancel(ctx, long.ID); err != nil {
		return fmt.Errorf("cancel %s: %w", long.ID, err)
	}
	if fin, err = c.Await(ctx, long.ID, 25*time.Millisecond); err != nil {
		return fmt.Errorf("await cancelled %s: %w", long.ID, err)
	}
	if fin.State != server.StateCanceled {
		return fmt.Errorf("cancelled job finished %s", fin.State)
	}
	fmt.Printf("servesmoke: job %s cancelled\n", long.ID)

	// Scrape metrics and sanity-check the counters this run must have
	// produced.
	metricsText, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, want := range []string{
		"chimera_server_jobs_submitted 2",
		"chimera_server_jobs_completed 1",
		"chimera_simjob_jobs_run",
		"chimera_server_job_latency_ms_bucket",
	} {
		if !strings.Contains(metricsText, want) {
			return fmt.Errorf("metrics scrape missing %q", want)
		}
	}
	fmt.Println("servesmoke: metrics scrape ok")

	// Graceful drain: SIGTERM, then the process must print its drained
	// marker and exit 0.
	if _, err := d.Drain(ctx); err != nil {
		return err
	}
	fmt.Println("servesmoke: graceful drain ok")
	return nil
}

// runChaos reboots the daemon with the fault plane armed — every
// distinct job's first execution panics (rate 1, cap 1) and a fifth of
// HTTP requests are 503'd — and verifies the daemon announces its plan
// fingerprint, the retrying client still completes every job, and the
// resilience counters land on /metrics.
func runChaos(ctx context.Context, bin string) error {
	d, err := bootDaemon(ctx, bin,
		"-workers", "2", "-queue", "16",
		"-retry-budget", "1", "-watchdog", "2",
		"-fault-seed", "9",
		"-fault-job-panic", "1", "-fault-panic-cap", "1",
		"-fault-http-error", "0.2", "-fault-http-cap", "4",
	)
	if err != nil {
		return err
	}
	defer d.Kill()
	fmt.Printf("servesmoke: faulted daemon up at %s\n", d.Addr)

	c := client.New("http://"+d.Addr, client.WithMaxAttempts(8))

	const jobs = 3
	for i := 0; i < jobs; i++ {
		// Distinct seeds make each submission a distinct simjob, so the
		// retry-counter check below is exact.
		spec := jobspec.Solo("SAD").WithWindowUs(100).WithSeed(uint64(9000 + i))
		st, err := c.SubmitWait(ctx, spec)
		if err != nil {
			return fmt.Errorf("job %d: submit: %w", i, err)
		}
		if st.State != server.StateDone {
			return fmt.Errorf("job %d (%s) finished %s: %s", i, st.ID, st.State, st.Error)
		}
		if len(st.Result) == 0 {
			return fmt.Errorf("job %d (%s) done without result", i, st.ID)
		}
	}

	// Every job's first execution panicked and was retried exactly once;
	// the injected and recovered counts must both surface on /metrics.
	metricsText, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, want := range []string{
		fmt.Sprintf("chimera_faults_job_panics %d", jobs),
		fmt.Sprintf("chimera_server_job_retries %d", jobs),
		fmt.Sprintf("chimera_simjob_panics %d", jobs),
		"chimera_server_jobs_failed 0",
	} {
		if !strings.Contains(metricsText, want) {
			return fmt.Errorf("metrics scrape missing %q", want)
		}
	}
	fmt.Printf("servesmoke: %d jobs recovered from injected panics\n", jobs)

	plan, err := d.Drain(ctx)
	if err != nil {
		return err
	}
	if !strings.HasPrefix(plan, "faults:seed=9;") {
		return fmt.Errorf("daemon announced fault plan %q, want seed 9", plan)
	}
	fmt.Printf("servesmoke: fault plan %s verified, graceful drain ok\n", plan)
	return nil
}
