package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"chimera/internal/cluster"
	"chimera/internal/engine"
	"chimera/internal/kernels"
	"chimera/internal/server"
)

// The service and fleet workloads run the system under test in a child
// process of its own, as a daemon runs beside its clients: the load
// generator then never competes with the daemon's workers for the Go
// scheduler, and the daemon's CPU time, memory and heap are its own.

// daemonReport is what the daemon process prints when it stops.
type daemonReport struct {
	Counters map[string]int64 `json:"counters"`
	// CPUShares are the CPU-profile shares when profiling was asked for.
	CPUShares map[string]float64 `json:"cpu_shares,omitempty"`
}

// serveMain is the daemon process: it boots the service or the fleet,
// prints "ready <base URL>", serves until its stdin closes, and prints
// its report as one JSON line.
func serveMain(kind string, procs int, profile bool) error {
	kernels.Load()
	var s *system
	var err error
	switch kind {
	case "service":
		s, err = startService(procs)
	case "fleet":
		s, err = startFleet(procs)
	default:
		err = fmt.Errorf("nothing to serve for %q", kind)
	}
	if err != nil {
		return err
	}
	var stop func() map[string]float64
	if profile {
		if stop, err = startProfile(); err != nil {
			s.close()
			return err
		}
	}
	fmt.Printf("ready %s\n", s.base)
	_, _ = io.Copy(io.Discard, os.Stdin) // returns when the benchmark process closes stdin
	rep := daemonReport{Counters: map[string]int64{}}
	if stop != nil {
		rep.CPUShares = stop()
	}
	for _, srv := range s.servers {
		reg := srv.Registry()
		for _, name := range []string{server.MetricJobsRejected, server.MetricShedHopeless, server.MetricPeerHits, engine.MetricRequests, engine.MetricRebalances} {
			rep.Counters[name] += reg.Counter(name).Value()
		}
		st := srv.Pool().Cache().Stats()
		rep.Counters["simjob/jobs_run"] += st.JobsRun
		rep.Counters["simjob/cache_hits"] += st.CacheHits
	}
	if s.front != nil {
		reg := s.front.Registry()
		for _, name := range []string{cluster.MetricFrontRouted, cluster.MetricFrontCacheHits, cluster.MetricFrontFailovers} {
			rep.Counters[name] = reg.Counter(name).Value()
		}
	}
	s.close()
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// daemon is the benchmark process's handle on a daemon process.
type daemon struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	base  string
	fleet bool
}

// startDaemon starts this binary in serve mode and waits until it is
// ready.
func startDaemon(kind string, profile bool) (*daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--serve", kind}
	if profile {
		args = append(args, "--profile")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout), fleet: kind == "fleet"}
	line, err := d.out.ReadString('\n')
	base, ok := strings.CutPrefix(strings.TrimSpace(line), "ready ")
	if err != nil || !ok {
		stdin.Close()
		_ = cmd.Wait() // the daemon failed to start; its stderr says why
		return nil, fmt.Errorf("daemon did not report ready (%q, %v)", line, err)
	}
	d.base = base
	return d, nil
}

// stop closes the daemon's stdin, reads its report and waits for it to
// exit.
func (d *daemon) stop() (*daemonReport, error) {
	d.stdin.Close()
	line, rerr := d.out.ReadString('\n')
	werr := d.cmd.Wait()
	if werr != nil {
		return nil, fmt.Errorf("daemon: %w", werr)
	}
	var rep daemonReport
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		return nil, fmt.Errorf("daemon report %q: %v, %w", line, rerr, err)
	}
	return &rep, nil
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpu reads the daemon's user+sys CPU time from /proc.
func (d *daemon) cpu() time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(fields[11], 10, 64)
	stime, _ := strconv.ParseInt(fields[12], 10, 64)
	return time.Duration(utime+stime) * time.Second / clockTicks
}

// peakRSSMB reads the daemon's VmHWM in MB.
func (d *daemon) peakRSSMB() float64 {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}
