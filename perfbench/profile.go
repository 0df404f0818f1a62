package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// The CPU profile of a traced window is split by layer: each sample goes
// to the innermost frame that belongs to a pipeline package, so a layer's
// share is its own CPU, allocation and syscall cost included, with the
// shared data types (fact, vocab, ontology) charged to their caller. GC
// and scheduler work is recognised anywhere in the stack and gets its own
// row. Only the few fields of the pprof protobuf this needs are decoded.

// layerPkgs maps package path prefixes to layer rows.
var layerPkgs = []struct{ prefix, layer string }{
	{"oassis/internal/oassisql.", "oassisql"},
	{"oassis/internal/sparql.", "plan"},
	{"oassis/internal/plan.", "plan"},
	{"oassis/internal/assign.", "assign"},
	{"oassis/internal/core.", "core"},
	{"oassis/internal/aggregate.", "aggregate"},
	{"oassis/internal/panel.", "panel"},
	{"oassis/internal/serve.", "serve"},
	{"oassis/internal/store.", "store"},
	{"oassis/internal/obs.", "obs"},
	{"oassis/internal/crowd.", "crowd"},
	{"oassis/internal/synth.", "crowd"},
	{"net/http.", "http"},
	{"encoding/json.", "http"},
	{"net.", "http"},
	{"bufio.", "http"},
}

// profileLayers lists every row the split can produce.
var profileLayers = []string{"oassisql", "plan", "assign", "core", "aggregate", "panel",
	"serve", "store", "obs", "crowd", "http", "driver", "gc", "sched", "runtime"}

var (
	gcFrames    = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart"}
	schedFrames = []string{"runtime.schedule", "runtime.findRunnable", "runtime.sysmon"}
)

// splitProfile returns each layer's share of the profile's CPU time.
// mainLayer names the row for package main: the benchmark's own driver
// in-process, the HTTP handlers for the server binary.
func splitProfile(raw []byte, mainLayer string) (map[string]float64, error) {
	if len(raw) > 1 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		sampleRaw [][]byte
	)
	err := eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			sampleRaw = append(sampleRaw, b)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	byLayer := map[string]float64{}
	var total float64
	for _, sb := range sampleRaw {
		var locs, vals []uint64
		err := eachField(sb, func(n int, v uint64, b []byte) error {
			switch n {
			case 1:
				if b != nil {
					locs = append(locs, unpack(b)...)
				} else {
					locs = append(locs, v)
				}
			case 2:
				if b != nil {
					vals = append(vals, unpack(b)...)
				} else {
					vals = append(vals, v)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			continue
		}
		w := float64(vals[len(vals)-1]) // CPU nanoseconds
		var frames []string
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				frames = append(frames, name(fn))
			}
		}
		byLayer[classify(frames, mainLayer)] += w
		total += w
	}
	if total == 0 {
		return byLayer, nil
	}
	for k := range byLayer {
		byLayer[k] /= total
	}
	return byLayer, nil
}

// classify picks the row of one stack (frames innermost first).
func classify(frames []string, mainLayer string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if f == g {
				return "gc"
			}
		}
		for _, s := range schedFrames {
			if f == s {
				return "sched"
			}
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return mainLayer
		}
		for _, p := range layerPkgs {
			if strings.HasPrefix(f, p.prefix) {
				return p.layer
			}
		}
	}
	return "runtime"
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return errors.New("profile: unsupported wire type")
		}
	}
	return nil
}

// unpack decodes a packed repeated varint field.
func unpack(b []byte) []uint64 {
	var out []uint64
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}
