// Command perfbench is the repository benchmark. One invocation runs one
// named workload from a seed, checks the outputs, and prints one JSON
// result line: the end-to-end metrics with --trace 0, the per-layer
// metrics of a separate traced run with --trace 1.
//
//	bash perfbench/run.sh --workload engine-long --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare BASE_DIR HEAD_DIR
//
// The workloads, metrics and their clocks are described in
// perfbench/README.md; BENCHMARK.json at the repository root lists them
// with their bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	// procs is nproc: GOMAXPROCS, pool parallelism and server workers.
	procs int
	// tr is nil for the untraced end-to-end run.
	tr *tracer
}

// outcome is a workload's raw report before it is shaped into a result.
type outcome struct {
	attempted int
	// problems lists failed operations and failed output checks; each
	// counts once in result.Failed.
	problems []string
	values   map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, v float64) {
	if o.values == nil {
		o.values = make(map[string]float64)
	}
	o.values[name] = v
}

// workload is one named traffic shape.
type workload struct {
	name string
	// setup brings the system to ready from a cold process and returns
	// its teardown; it is what setup_s times.
	setup func(procs int) (func(), error)
	run   func(cfg runConfig) (*outcome, error)
}

var allWorkloads = []workload{
	{name: "engine-long", setup: setupExecutor, run: runEngineLong},
	{name: "sweep", setup: setupExecutor, run: runSweep},
	{name: "service", setup: setupService, run: runService},
	{name: "fleet", setup: setupFleet, run: runFleet},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured duration")
	traced := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	probe := fs.String("setup-probe", "", "internal: set up the named workload cold, print ready, exit")
	serve := fs.String("serve", "", "internal: run the service or fleet daemon until stdin closes")
	profile := fs.Bool("profile", false, "internal: profile the daemon's CPU")
	if err := fs.Parse(args); err != nil {
		return err
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)

	if *serve != "" {
		return serveMain(*serve, procs, *profile)
	}
	if *probe != "" {
		w, err := findWorkload(*probe)
		if err != nil {
			return err
		}
		return setupProbe(w, procs)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if *traced != 0 && *traced != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if err := checkCheckout(); err != nil {
		return err
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, procs: procs}
	wanted := endToEnd
	if *traced == 1 {
		cfg.tr = newTracer()
		wanted = perLayer()
		stop, err := startProfile()
		if err != nil {
			return err
		}
		out, err := w.run(cfg)
		shares := stop()
		if err != nil {
			return err
		}
		for k, v := range shares {
			// The daemon's own shares, where a workload reported them,
			// describe the system under test; the load generator's do not.
			if _, ok := out.values[k]; !ok {
				out.set(k, v)
			}
		}
		out.set("bench.fail_pct", 100*float64(len(out.problems))/float64(max(out.attempted, 1)))
		zeroLayers(out)
		if err := cfg.tr.finish(w.name); err != nil {
			return err
		}
		return emit(out, wanted)
	}
	setup, err := measureSetup(w)
	if err != nil {
		return err
	}
	out, err := w.run(cfg)
	if err != nil {
		return err
	}
	out.set("setup_s", setup)
	return emit(out, wanted)
}

// emit prints the problems to stderr and the result line to stdout. A
// metric the workload did not produce is an error: every workload
// reports every metric of the requested set.
func emit(out *outcome, wanted []metricDef) error {
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    len(out.problems),
		Metrics:   make(map[string]metric, len(wanted)),
	}
	if res.Attempted < 1 {
		return errors.New("workload attempted no operation")
	}
	var missing []string
	for _, d := range wanted {
		v, ok := out.values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workload did not report %s", strings.Join(missing, ", "))
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkCheckout refuses to run outside a checkout of the repository:
// the benchmark drives the repository's own packages, so a directory
// holding only the benchmark has nothing to measure.
func checkCheckout() error {
	for _, p := range []string{"go.mod", "internal/engine", "BENCHMARK.json"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}
