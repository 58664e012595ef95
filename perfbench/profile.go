package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers lists the per-layer self-time buckets in report order. gc
// takes samples with no repro/internal frame (GC workers, the
// scheduler, runtime work outside any model call); bench takes the
// benchmark's own bookkeeping between passes; other takes a package
// the map below does not know.
var layers = []string{
	"sim", "tinyos", "mcu", "asic", "ecg", "app", "radio", "channel",
	"packet", "mac", "energy", "metrics", "core", "runner", "experiments",
	"gc", "bench", "other",
}

// layerOf charges each repro/internal package to a layer, using the
// repo's module names. An empty layer marks a helper package with no
// cost of its own: its samples go to the caller's layer.
var layerOf = map[string]string{
	"sim":         "sim",
	"simbench":    "sim",
	"tinyos":      "tinyos",
	"mcu":         "mcu",
	"msp":         "mcu",
	"asic":        "asic",
	"ecg":         "ecg",
	"app":         "app",
	"radio":       "radio",
	"channel":     "channel",
	"body":        "channel",
	"packet":      "packet",
	"codec":       "packet",
	"mac":         "mac",
	"energy":      "energy",
	"battery":     "energy",
	"platform":    "energy",
	"metrics":     "metrics",
	"trace":       "metrics",
	"core":        "core",
	"node":        "core",
	"fault":       "core",
	"audit":       "core",
	"runner":      "runner",
	"journal":     "runner",
	"experiments": "experiments",
	"analytic":    "experiments",
	"report":      "experiments",
	"paperdata":   "experiments",
	"approx":      "",
}

const internalPrefix = "repro/internal/"

// internalPkg returns the repro/internal package a symbol name belongs
// to ("repro/internal/mac.(*node).onSlot" -> "mac").
func internalPkg(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// attribute picks the bucket for one CPU sample. frames runs from the
// innermost call outwards (inlined calls included); inPass reports
// whether the sample carries a pprof label, which only goroutines
// running a pass do.
func attribute(frames []string, inPass bool) string {
	if !inPass {
		for _, fn := range frames {
			if strings.HasPrefix(fn, "main.") {
				return "bench"
			}
		}
		return "gc"
	}
	for _, fn := range frames {
		pkg, ok := internalPkg(fn)
		if !ok {
			continue
		}
		layer, known := layerOf[pkg]
		switch {
		case !known:
			return "other"
		case layer != "":
			return layer
		}
	}
	return "gc"
}

// selfTimes decodes a CPU profile written by runtime/pprof and returns
// the sampled CPU nanoseconds per bucket. The buckets sum to the
// profile's sampled total.
func selfTimes(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make(map[string]int64)
	var frames []string
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: short sample")
		}
		frames = frames[:0]
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				frames = append(frames, p.str(p.functions[fid]))
			}
		}
		out[attribute(frames, s.labeled)] += s.values[cpu]
	}
	return out, nil
}

// profile holds the parts of a pprof protobuf the attribution needs:
// sample values and stacks, location -> function ids (innermost
// inlined call first), function -> name index, and the string table.
type profile struct {
	sampleTypes []int64
	samples     []sample
	locations   map[uint64][]uint64
	functions   map[uint64]int64
	strings     []string
}

type sample struct {
	locations []uint64
	values    []int64
	labeled   bool
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocation = 1
	sampleValue    = 2
	sampleLabel    = 3

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := walk(b, func(f field) error {
		switch f.num {
		case profSampleType:
			return walk(f.data, func(g field) error {
				if g.num == valueTypeType {
					p.sampleTypes = append(p.sampleTypes, int64(g.v))
				}
				return nil
			})
		case profSample:
			var s sample
			err := walk(f.data, func(g field) error {
				switch g.num {
				case sampleLocation:
					return g.uints(func(v uint64) { s.locations = append(s.locations, v) })
				case sampleValue:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				case sampleLabel:
					s.labeled = true
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := walk(f.data, func(g field) error {
				switch g.num {
				case locationID:
					id = g.v
				case locationLine:
					return walk(g.data, func(h field) error {
						if h.num == lineFunction {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := walk(f.data, func(g field) error {
				switch g.num {
				case functionID:
					id = g.v
				case functionName:
					name = int64(g.v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// field is one protobuf wire field: a varint (v) or a length-delimited
// payload (data). Fixed-width fields are skipped; profile.proto has
// none that the attribution reads.
type field struct {
	num  int
	wire int
	v    uint64
	data []byte
}

// uints yields a repeated varint field in either encoding: one value
// per field, or packed into a length-delimited payload.
func (f field) uints(yield func(uint64)) error {
	if f.wire == 0 {
		yield(f.v)
		return nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		yield(v)
		b = b[n:]
	}
	return nil
}

func walk(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
