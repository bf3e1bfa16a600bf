package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// cpuGroups maps each reported CPU-share metric to the group of frames
// it counts; groupOf assigns frames to groups.
var cpuGroups = map[string]string{
	"eventq":  "eventq.cpu_pct",
	"engine":  "engine.cpu_pct",
	"core":    "core.cpu_pct",
	"preempt": "preempt.cpu_pct",
	"rng":     "rng.cpu_pct",
	"gc":      "runtime.gc_cpu_pct",
	"http":    "server.http_cpu_pct",
}

// groupOf returns the group a function belongs to, or "" when the frame
// is attributed to its caller (runtime and other standard-library code).
// Every repository package is a group of its own, so a sample lands on
// the nearest repository frame; net/http and encoding/json form the
// "http" group and math.Exp/math.Log join "rng", whose samplers call them.
func groupOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "chimera/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		return pkg
	}
	switch {
	case strings.HasPrefix(fn, "net/http."), strings.HasPrefix(fn, "encoding/json."):
		return "http"
	case strings.HasPrefix(fn, "math.Exp"), strings.HasPrefix(fn, "math.Log"),
		strings.HasPrefix(fn, "math.exp"), strings.HasPrefix(fn, "math.log"):
		return "rng"
	}
	return ""
}

// isGC reports frames of the garbage collector's own work.
func isGC(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// startProfile starts the CPU profiler; stop returns each group's share
// of the sampled CPU time in percent.
func startProfile() (stop func() map[string]float64, err error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	return func() map[string]float64 {
		pprof.StopCPUProfile()
		shares, err := cpuShares(buf.Bytes())
		if err != nil {
			// A profile that cannot be read leaves every share at zero;
			// the rest of the traced run stands.
			fmt.Fprintln(os.Stderr, "cpu profile:", err)
			shares = map[string]float64{}
		}
		for _, m := range cpuGroups {
			if _, ok := shares[m]; !ok {
				shares[m] = 0
			}
		}
		return shares
	}, nil
}

// cpuShares decodes a gzipped pprof CPU profile and attributes every
// sample to a group.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byGroup := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		frames := p.frames(s.locs)
		group := ""
		for _, fn := range frames {
			if isGC(fn) {
				group = "gc"
				break
			}
		}
		if group == "" {
			for _, fn := range frames {
				if g := groupOf(fn); g != "" {
					group = g
					break
				}
			}
		}
		byGroup[group] += s.value
		total += s.value
	}
	out := make(map[string]float64)
	if total == 0 {
		return out, nil
	}
	for g, m := range cpuGroups {
		out[m] = 100 * float64(byGroup[g]) / float64(total)
	}
	return out, nil
}

// profile is the subset of the pprof protobuf the shares need.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location ID -> function IDs, innermost first
	functions map[uint64]int64    // function ID -> name string index
	strings   []string
}

type sample struct {
	locs  []uint64
	value int64
}

// frames returns a sample's function names, leaf first.
func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locations[l] {
			if i := p.functions[f]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// parseProfile decodes profile.proto fields 2 (sample), 4 (location),
// 5 (function) and 6 (string_table).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			var values []int64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, v, data)
				case 2:
					for _, u := range appendUints(nil, v, data) {
						values = append(values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			// CPU profiles carry [samples, nanoseconds]; weight by time.
			if len(values) > 0 {
				s.value = values[len(values)-1]
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendUints appends a repeated integer field, packed (data set) or not.
func appendUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile")

// eachField walks one protobuf message: fn gets the field number and
// either the varint value or the length-delimited payload (nil for
// varints).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
