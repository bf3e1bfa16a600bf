package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchFile is the part of BENCHMARK.json compare needs.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain reads two result sets and reports, per workload and
// end-to-end metric, each side's median and quartiles, the share of
// paired runs the head side wins, and a verdict.
//
// A result set is a directory with one subdirectory per workload holding
// one file per run; each file's last line is that run's result line.
// Runs pair up by file name, so name files after their seed.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: compare [-bench BENCHMARK.json] BASE_DIR HEAD_DIR")
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var bench benchFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	base, err := readResultSet(fs.Arg(0))
	if err != nil {
		return err
	}
	head, err := readResultSet(fs.Arg(1))
	if err != nil {
		return err
	}
	var names []string
	for wl := range base {
		if _, ok := head[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return errors.New("the two result sets share no workload")
	}
	fmt.Printf("%-12s %-17s %26s %26s %7s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "delta", "wins", "verdict")
	for _, wl := range names {
		for _, m := range bench.EndToEnd {
			b, h := pairValues(base[wl], head[wl], m.Name)
			if len(b) == 0 {
				continue
			}
			v := compareMetric(b, h, m.Better == "lower", m.Bound)
			fmt.Printf("%-12s %-17s %26s %26s %+6.1f%% %5.0f%%  %s\n", wl, m.Name,
				summary(b), summary(h), 100*v.delta, 100*v.winShare, v.verdict)
		}
	}
	return nil
}

// resultSet maps workload -> run name -> result.
type resultSet map[string]map[string]result

func readResultSet(dir string) (resultSet, error) {
	set := resultSet{}
	wls, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, wl := range wls {
		if !wl.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, wl.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			res, err := readResult(filepath.Join(dir, wl.Name(), f.Name()))
			if err != nil {
				return nil, err
			}
			if set[wl.Name()] == nil {
				set[wl.Name()] = map[string]result{}
			}
			set[wl.Name()][f.Name()] = res
		}
	}
	return set, nil
}

// readResult parses the last non-empty line of a run's output.
func readResult(path string) (result, error) {
	f, err := os.Open(path)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("%s: no result line: %w", path, err)
	}
	return res, nil
}

// pairValues returns a metric's values from runs present in both sets,
// in matching order.
func pairValues(base, head map[string]result, metric string) (b, h []float64) {
	var runs []string
	for run := range base {
		if _, ok := head[run]; ok {
			runs = append(runs, run)
		}
	}
	sort.Strings(runs)
	for _, run := range runs {
		mb, okb := base[run].Metrics[metric]
		mh, okh := head[run].Metrics[metric]
		if okb && okh {
			b = append(b, mb.Value)
			h = append(h, mh.Value)
		}
	}
	return b, h
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// comparison is the outcome of one metric's A/B comparison.
type comparison struct {
	// delta is the head median's change against the base median, as a
	// share of the base median (positive = larger).
	delta float64
	// winShare is the share of pairs the head side won; ties count for
	// neither side.
	winShare float64
	verdict  string
}

// compareMetric applies the rule of the choosing-metrics method: a gain
// needs the head side to win at least nine pairs in ten and to move the
// median by more than the base side's interquartile distance; a loss is
// a median worse by more than the bound; when either side's spread
// exceeds the bound the metric is unresolved, unless every head run
// beats (or loses to) every base run.
func compareMetric(base, head []float64, lowerBetter bool, bound float64) comparison {
	better := func(h, b float64) bool {
		if lowerBetter {
			return h < b
		}
		return h > b
	}
	var c comparison
	mb, mh := median(base), median(head)
	if mb != 0 {
		c.delta = (mh - mb) / math.Abs(mb)
	}
	wins, pairs := 0, 0
	for i := range base {
		if i >= len(head) {
			break
		}
		pairs++
		if better(head[i], base[i]) {
			wins++
		}
	}
	if pairs > 0 {
		c.winShare = float64(wins) / float64(pairs)
	}
	allBetter, allWorse := true, true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
			allWorse = allWorse && better(b, h)
		}
	}
	worseBy := c.delta
	if !lowerBetter {
		worseBy = -c.delta
	}
	q1, q3 := quartiles(base)
	switch {
	case spread(base) > bound || spread(head) > bound:
		switch {
		case allBetter:
			c.verdict = "improved"
		case allWorse:
			c.verdict = "worse"
		default:
			c.verdict = "unresolved"
		}
	case c.winShare >= 0.9 && better(mh, mb) && math.Abs(mh-mb) > q3-q1:
		c.verdict = "improved"
	case worseBy > bound:
		c.verdict = "worse"
	default:
		c.verdict = "unchanged"
	}
	return c
}
