// Command replaysmoke is the end-to-end record → replay → diff check
// behind `make replay-smoke`: it boots a real chimerad with -record,
// drives a mixed campaign through the typed client (specs built with
// the jobspec builders — the same construction path as production
// callers), drains the daemon, then replays the captured trace three
// times with the chimerareplay binary — twice clean, once with
// timing-only faults armed — and requires all three reports to be
// byte-identical. Any divergence means replay determinism broke.
//
// Usage:
//
//	replaysmoke -daemon ./chimerad -replay ./chimerareplay
//
// Flags:
//
//	-daemon PATH  chimerad binary to boot (required)
//	-replay PATH  chimerareplay binary to run (required)
//	-timeout D    overall smoke budget (default 2m)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"chimera/internal/jobspec"
	"chimera/internal/server"
	"chimera/internal/server/client"
	"chimera/internal/smoke"
)

func main() {
	daemonBin := flag.String("daemon", "", "chimerad binary to boot (required)")
	replayBin := flag.String("replay", "", "chimerareplay binary to run (required)")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall smoke budget")
	flag.Parse()
	if *daemonBin == "" || *replayBin == "" {
		fmt.Fprintln(os.Stderr, "replaysmoke: -daemon and -replay are required")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := run(ctx, *daemonBin, *replayBin); err != nil {
		fmt.Fprintf(os.Stderr, "replaysmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("replaysmoke: PASS")
}

// campaign is the recorded workload: every kind, a policy spread, and
// an exact duplicate whose replay must dedup.
func campaign() []jobspec.Spec {
	return []jobspec.Spec{
		jobspec.Solo("SAD").WithWindowUs(100),
		jobspec.Periodic("SAD", jobspec.PolicyChimera).WithWindowUs(100).WithPriority(2),
		jobspec.Periodic("SAD", jobspec.PolicyDrain).WithWindowUs(100),
		jobspec.Pair("SAD", "MUM", jobspec.PolicyFCFS).WithWindowUs(100),
		jobspec.Solo("SAD").WithWindowUs(100), // duplicate: must dedup
	}
}

// run executes the record leg, then the three replay legs.
func run(ctx context.Context, daemonBin, replayBin string) error {
	dir, err := os.MkdirTemp("", "replaysmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	traceFile := filepath.Join(dir, "trace.jsonl")

	if err := record(ctx, daemonBin, traceFile); err != nil {
		return fmt.Errorf("record leg: %w", err)
	}

	records, err := readTrace(traceFile)
	if err != nil {
		return err
	}
	if len(records) != len(campaign()) {
		return fmt.Errorf("trace holds %d records, want %d", len(records), len(campaign()))
	}
	fmt.Printf("replaysmoke: recorded %d requests\n", len(records))

	// Replay twice clean, once with every execution slowed down —
	// timing faults must not perturb the report.
	reports := make([][]byte, 3)
	for i, extra := range [][]string{
		nil,
		nil,
		{"-fault-seed", "5", "-fault-job-slowdown", "1", "-fault-slowdown-delay", "2ms"},
	} {
		out := filepath.Join(dir, fmt.Sprintf("report%d.json", i))
		args := append([]string{"-trace", traceFile, "-out", out}, extra...)
		cmd := exec.CommandContext(ctx, replayBin, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("replay leg %d: %w", i, err)
		}
		if reports[i], err = os.ReadFile(out); err != nil {
			return err
		}
	}
	if !bytes.Equal(reports[0], reports[1]) {
		return fmt.Errorf("two clean replays produced different reports")
	}
	if !bytes.Equal(reports[0], reports[2]) {
		return fmt.Errorf("timing-faulted replay diverged from the clean report")
	}

	// Sanity-check the report's content, not just its stability.
	var rep struct {
		Replayed int `json:"replayed"`
		Done     int `json:"done"`
		Deduped  int `json:"deduped"`
	}
	if err := json.Unmarshal(reports[0], &rep); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if rep.Replayed != len(records) || rep.Done != len(records) {
		return fmt.Errorf("report replayed %d / done %d, want %d", rep.Replayed, rep.Done, len(records))
	}
	if rep.Deduped < 1 {
		return fmt.Errorf("duplicate submission did not dedup on replay")
	}
	fmt.Printf("replaysmoke: 3 replays byte-identical (%d done, %d deduped)\n", rep.Done, rep.Deduped)
	return nil
}

// record boots the daemon with -record, drives the campaign and drains.
func record(ctx context.Context, daemonBin, traceFile string) error {
	d, err := smoke.Boot(ctx, "chimerad", daemonBin,
		"-addr", "127.0.0.1:0", "-workers", "2", "-record", traceFile)
	if err != nil {
		return err
	}
	defer d.Kill()
	fmt.Printf("replaysmoke: recording daemon up at %s\n", d.Addr)

	c := client.New("http://" + d.Addr)
	for i, spec := range campaign() {
		st, err := c.SubmitWait(ctx, spec)
		if err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
		if st.State != server.StateDone {
			return fmt.Errorf("job %d finished %s: %s", i, st.State, st.Error)
		}
	}
	_, err = d.Drain(ctx)
	return err
}

// readTrace loads and validates the recorded trace.
func readTrace(path string) ([]jobspec.TraceRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return jobspec.ReadTrace(f)
}
