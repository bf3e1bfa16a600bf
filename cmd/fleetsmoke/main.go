// Command fleetsmoke is the end-to-end fleet smoke test behind `make
// fleet-smoke`: it boots two real chimerad replicas (peer result-cache
// armed) plus a chimerafront proxy on random ports, drives a mixed
// unique/duplicate workload through the front, and verifies the fleet
// behaves as one memoizing cache — every duplicate is served without a
// recompute, so the summed simjob execution counters across the fleet
// equal the number of distinct specs, and duplicate results are
// byte-identical.
//
// A second chaos leg re-boots the fleet with one replica's HTTP fault
// plane armed (injected 503s and connection resets, deterministic per
// -fault-seed), SIGTERMs that replica while load is still flowing, and
// verifies the front fails the orphaned ring range over to the
// survivor: the full run completes with zero failed jobs, the front's
// failover counter moves, and the killed replica prints its
// deterministic fault-plan fingerprint and injection report on the way
// down.
//
// Usage:
//
//	fleetsmoke -chimerad ./chimerad -front ./chimerafront
//
// Flags:
//
//	-chimerad PATH  chimerad binary to boot (required)
//	-front PATH     chimerafront binary to boot (required)
//	-timeout D      overall smoke budget (default 3m)
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"chimera/internal/cluster"
	"chimera/internal/jobspec"
	"chimera/internal/server"
	"chimera/internal/server/client"
	"chimera/internal/smoke"
)

func main() {
	chimerad := flag.String("chimerad", "", "chimerad binary to boot (required)")
	front := flag.String("front", "", "chimerafront binary to boot (required)")
	timeout := flag.Duration("timeout", 3*time.Minute, "overall smoke budget")
	flag.Parse()
	if *chimerad == "" || *front == "" {
		fmt.Fprintln(os.Stderr, "fleetsmoke: -chimerad and -front are required")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := runFleet(ctx, *chimerad, *front); err != nil {
		fmt.Fprintf(os.Stderr, "fleetsmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	if err := runChaos(ctx, *chimerad, *front); err != nil {
		fmt.Fprintf(os.Stderr, "fleetsmoke: FAIL (chaos leg): %v\n", err)
		os.Exit(1)
	}
	fmt.Println("fleetsmoke: PASS")
}

// freePorts reserves n distinct free TCP ports by binding and releasing
// them. The tiny release-to-reuse window is an accepted smoke-test
// race; a clash fails loudly at boot.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// fleet is a booted two-replica fleet plus its front proxy.
type fleet struct {
	replicas []*smoke.Daemon
	front    *smoke.Daemon
	peers    []string
	ring     *cluster.Ring
}

// kill force-stops every process (cleanup for error paths).
func (f *fleet) kill() {
	for _, r := range f.replicas {
		r.Kill()
	}
	if f.front != nil {
		f.front.Kill()
	}
}

// bootFleet reserves ports for both replicas (every replica must know
// the full peer list at boot), boots them with the cluster peer cache
// armed, then boots the front over the same list. extra flags go to
// replica index faultIdx only (the chaos leg's victim).
func bootFleet(ctx context.Context, chimerad, front string, faultIdx int, extra ...string) (*fleet, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	for _, p := range ports {
		f.peers = append(f.peers, fmt.Sprintf("http://127.0.0.1:%d", p))
	}
	peerList := strings.Join(f.peers, ",")
	// The front's ring is rebuilt here from the same member list and
	// default vnodes, so the smoke can predict which replica owns a
	// given spec hash.
	f.ring = cluster.NewRing(f.peers, 0)
	for i, p := range ports {
		args := []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", p),
			"-workers", "2", "-queue", "32",
			"-peers", peerList, "-self", f.peers[i],
		}
		if i == faultIdx {
			args = append(args, extra...)
		}
		r, err := smoke.Boot(ctx, "chimerad", chimerad, args...)
		if err != nil {
			f.kill()
			return nil, err
		}
		f.replicas = append(f.replicas, r)
	}
	f.front, err = smoke.Boot(ctx, "chimerafront", front,
		"-addr", "127.0.0.1:0", "-replicas", peerList, "-probe", "250ms")
	if err != nil {
		f.kill()
		return nil, err
	}
	return f, nil
}

// metricValue extracts one counter's value from a Prometheus text body
// (-1 when absent).
func metricValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return -1
}

// runFleet drives the duplicate-heavy workload through the front and
// verifies fleet-wide memoization.
func runFleet(ctx context.Context, chimerad, front string) error {
	f, err := bootFleet(ctx, chimerad, front, -1)
	if err != nil {
		return err
	}
	defer f.kill()
	fmt.Printf("fleetsmoke: replicas %s + %s, front %s\n",
		f.replicas[0].Addr, f.replicas[1].Addr, f.front.Addr)

	c := client.New("http://" + f.front.Addr)

	// 8 distinct specs, each submitted 3 times. Serial submission makes
	// the counter arithmetic exact: the first submission of a spec
	// computes on its ring owner, every later one must be served from
	// the fleet cache without touching a worker.
	const distinct, repeats = 8, 3
	results := make(map[uint64][]byte)
	for pass := 0; pass < repeats; pass++ {
		for s := 0; s < distinct; s++ {
			seed := uint64(100 + s)
			spec := jobspec.Solo("SAD").WithWindowUs(200).WithSeed(seed)
			st, err := c.SubmitWait(ctx, spec)
			if err != nil {
				return fmt.Errorf("pass %d seed %d: %w", pass, seed, err)
			}
			if st.State != server.StateDone {
				return fmt.Errorf("pass %d seed %d finished %s: %s", pass, seed, st.State, st.Error)
			}
			if len(st.Result) == 0 {
				return fmt.Errorf("pass %d seed %d done without result", pass, seed)
			}
			if pass == 0 {
				results[seed] = append([]byte(nil), st.Result...)
			} else if !bytes.Equal(results[seed], st.Result) {
				return fmt.Errorf("seed %d: duplicate result differs from original:\n%s\nvs\n%s",
					seed, results[seed], st.Result)
			}
			if pass > 0 && !st.Deduped {
				return fmt.Errorf("pass %d seed %d was not served as a duplicate", pass, seed)
			}
		}
	}
	fmt.Printf("fleetsmoke: %d submissions (%d distinct), duplicates byte-identical\n",
		distinct*repeats, distinct)

	// Fleet-wide memoization: summed across both replicas, the simjob
	// executor ran each distinct spec exactly once.
	var executed float64
	for _, base := range f.peers {
		text, err := client.New(base).Metrics(ctx)
		if err != nil {
			return fmt.Errorf("replica metrics: %w", err)
		}
		if v := metricValue(text, "chimera_simjob_jobs_run"); v > 0 {
			executed += v
		}
	}
	if executed != distinct {
		return fmt.Errorf("fleet executed %v jobs, want exactly %d (duplicates recomputed?)", executed, distinct)
	}
	fmt.Printf("fleetsmoke: fleet executed exactly %d jobs for %d submissions\n", distinct, distinct*repeats)

	// The front must have routed only the distinct specs and served
	// every later duplicate out of the replicas' peer caches itself.
	frontText, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("front metrics: %w", err)
	}
	if v := metricValue(frontText, "chimera_front_jobs_routed"); v != distinct {
		return fmt.Errorf("front routed %v jobs, want %d", v, distinct)
	}
	if v := metricValue(frontText, "chimera_front_cache_hits"); v != distinct*(repeats-1) {
		return fmt.Errorf("front served %v cache hits, want %d", v, distinct*(repeats-1))
	}
	fmt.Println("fleetsmoke: front routed/cache-hit counters exact")

	// Graceful drains: front first (it stops proxying), then replicas.
	if _, err := f.front.Drain(ctx); err != nil {
		return err
	}
	for _, r := range f.replicas {
		if _, err := r.Drain(ctx); err != nil {
			return err
		}
	}
	fmt.Println("fleetsmoke: graceful fleet drain ok")
	return nil
}

// seedsOwnedBy picks n job seeds whose spec hashes the ring assigns to
// member — the deterministic way to guarantee the chaos kill actually
// orphans live traffic.
func seedsOwnedBy(ring *cluster.Ring, member string, start uint64, n int) []uint64 {
	var out []uint64
	for seed := start; len(out) < n; seed++ {
		spec := jobspec.Solo("SAD").WithWindowUs(200).WithSeed(seed)
		if ring.Owner(spec.Hash()) == member {
			out = append(out, seed)
		}
	}
	return out
}

// runChaos arms replica 1's HTTP fault plane, kills it mid-run, and
// verifies the front reroutes its ring range with zero failed jobs.
func runChaos(ctx context.Context, chimerad, front string) error {
	const victim = 1
	f, err := bootFleet(ctx, chimerad, front, victim,
		"-fault-seed", "7",
		"-fault-http-error", "0.3", "-fault-http-cap", "6",
		"-fault-http-reset", "0.2",
	)
	if err != nil {
		return err
	}
	defer f.kill()
	fmt.Printf("fleetsmoke: chaos fleet up, victim %s\n", f.replicas[victim].Addr)

	c := client.New("http://"+f.front.Addr, client.WithMaxAttempts(8))

	// Phase 1: jobs owned by the victim, submitted while it is alive and
	// injecting 503s/resets — the front must absorb the faults.
	pre := seedsOwnedBy(f.ring, f.peers[victim], 500, 6)
	for _, seed := range pre {
		st, err := c.SubmitWait(ctx, jobspec.Solo("SAD").WithWindowUs(200).WithSeed(seed))
		if err != nil {
			return fmt.Errorf("pre-kill seed %d: %w", seed, err)
		}
		if st.State != server.StateDone {
			return fmt.Errorf("pre-kill seed %d finished %s: %s", seed, st.State, st.Error)
		}
	}
	fmt.Printf("fleetsmoke: %d jobs done through the faulted victim\n", len(pre))

	// Kill the victim mid-run: SIGTERM starts its drain (admission goes
	// 503 immediately), so in-flight work finishes but the ring range is
	// orphaned while the remaining load is still flowing.
	if err := f.replicas[victim].Terminate(); err != nil {
		return err
	}

	// Phase 2: more jobs owned by the (now dying) victim. Every one must
	// fail over to the survivor and complete.
	post := seedsOwnedBy(f.ring, f.peers[victim], 900, 6)
	for _, seed := range post {
		st, err := c.SubmitWait(ctx, jobspec.Solo("SAD").WithWindowUs(200).WithSeed(seed))
		if err != nil {
			return fmt.Errorf("post-kill seed %d: %w", seed, err)
		}
		if st.State != server.StateDone {
			return fmt.Errorf("post-kill seed %d finished %s: %s", seed, st.State, st.Error)
		}
	}
	fmt.Printf("fleetsmoke: %d orphaned-range jobs failed over, zero failed\n", len(post))

	// The victim must have drained gracefully and reported its
	// deterministic fault plan.
	plan, err := f.replicas[victim].Drain(ctx)
	if err != nil {
		return err
	}
	if !strings.HasPrefix(plan, "faults:seed=7;") {
		return fmt.Errorf("victim announced fault plan %q, want seed 7", plan)
	}
	fmt.Printf("fleetsmoke: victim fault plan %s verified\n", plan)

	// The front's failover counter must show at least the first reroute;
	// after that the health view marks the victim down and later jobs
	// route straight to the survivor (which is not a failover).
	frontText, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("front metrics: %w", err)
	}
	if v := metricValue(frontText, "chimera_front_failovers"); v < 1 {
		return fmt.Errorf("front recorded %v failovers, want >= 1", v)
	}
	fmt.Println("fleetsmoke: front failover counter moved")

	if _, err := f.front.Drain(ctx); err != nil {
		return err
	}
	if _, err := f.replicas[0].Drain(ctx); err != nil {
		return err
	}
	fmt.Println("fleetsmoke: chaos fleet drained")
	return nil
}
