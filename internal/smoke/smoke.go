// Package smoke is the process harness shared by the end-to-end smoke
// commands (servesmoke, replaysmoke, fleetsmoke): boot a daemon binary,
// read its address announcement, watch its stdout for the fault-plan
// banner and the drain marker, and SIGTERM it into a graceful exit.
package smoke

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
)

// Daemon is one booted process under test (chimerad or chimerafront).
type Daemon struct {
	// Name is the prefix of the process's stdout announcements.
	Name string
	// Addr is the address the process announced it listens on.
	Addr string

	cmd *exec.Cmd
	// drained reports whether the process printed its drain marker
	// before stdout closed.
	drained chan bool
	// faultPlan receives the fingerprint a chimerad printed when its
	// fault plane was armed ("" when it never printed one).
	faultPlan chan string
}

// Boot starts bin with args and waits for its "<name> listening on
// ADDR" announcement, then keeps scanning stdout for the fault-plan
// banner and the "<name> drained" marker. Its stderr goes to ours.
func Boot(ctx context.Context, name, bin string, args ...string) (*Daemon, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("boot %s: %w", bin, err)
	}
	d := &Daemon{Name: name, cmd: cmd, drained: make(chan bool, 1), faultPlan: make(chan string, 1)}

	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" listening on "); ok {
			d.Addr = rest
			break
		}
	}
	if d.Addr == "" {
		_ = cmd.Process.Kill()
		return nil, fmt.Errorf("%s never announced its address", name)
	}
	go func() {
		plan, drained := "", false
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "chimerad fault plan "); ok {
				plan = rest
			}
			if strings.Contains(line, name+" drained") {
				drained = true
				break
			}
		}
		d.faultPlan <- plan
		d.drained <- drained
	}()
	return d, nil
}

// Kill force-stops the process (cleanup for error paths).
func (d *Daemon) Kill() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Kill()
	}
}

// Terminate sends SIGTERM without waiting for the drain.
func (d *Daemon) Terminate() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal %s: %w", d.Name, err)
	}
	return nil
}

// Drain sends SIGTERM and verifies the process prints its drain marker
// and exits 0. It returns the fault-plan fingerprint seen on stdout.
func (d *Daemon) Drain(ctx context.Context) (string, error) {
	if err := d.Terminate(); err != nil {
		return "", err
	}
	// The pipe must be fully read before cmd.Wait — Wait closes it and
	// would discard a still-buffered marker line.
	var plan string
	var sawDrain bool
	select {
	case plan = <-d.faultPlan:
		sawDrain = <-d.drained
	case <-ctx.Done():
		return "", fmt.Errorf("%s did not drain after SIGTERM", d.Name)
	}
	if !sawDrain {
		return plan, fmt.Errorf("%s exited without draining", d.Name)
	}
	exit := make(chan error, 1)
	go func() { exit <- d.cmd.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			return plan, fmt.Errorf("%s exited non-zero after SIGTERM: %w", d.Name, err)
		}
	case <-ctx.Done():
		return plan, fmt.Errorf("%s did not exit after SIGTERM", d.Name)
	}
	return plan, nil
}
