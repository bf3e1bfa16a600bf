package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 { return vmHWM("/proc/self/status") }

// vmHWM reads the VmHWM line of a /proc status file, in MB.
func vmHWM(path string) float64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// setupProbes is how many cold set-ups one run times; setup_s is their
// median.
const setupProbes = 31

// measureSetup times the workload's set-up cold: each probe is a fresh
// process (this binary with --setup-probe), timed from its start until
// it reports ready, so the catalog load, the Go runtime start and every
// once-per-process cost are paid each time, as a user pays them.
func measureSetup(w workload) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupProbes; i++ {
		d, err := probeOnce(self, w.name)
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

func probeOnce(self, name string) (time.Duration, error) {
	cmd := exec.Command(self, "--setup-probe", name)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	ready := time.Since(start)
	werr := cmd.Wait()
	if rerr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("probe did not report ready (%q, %v, %v)", line, rerr, werr)
	}
	if werr != nil {
		return 0, werr
	}
	return ready, nil
}

// setupProbe is the child side of measureSetup.
func setupProbe(w workload, procs int) error {
	teardown, err := w.setup(procs)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	teardown()
	return nil
}
