package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

// cpuProfile runs the CPU profiler over a traced section. The standard
// library writes the profile as gzipped protobuf; shares reads it back
// with the small decoder below, since no pprof library is vendored.
type cpuProfile struct {
	path string
	f    *os.File
}

// profileHz is the CPU profile's sampling rate: five times the default,
// so that a layer with a 1% share still collects tens of samples.
const profileHz = 500

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// Setting the rate first makes StartCPUProfile keep it (it logs that
	// it could not set its own 100 Hz). Shares count samples, so the
	// profile's recorded period does not matter here.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// profiledLayers are the layers cpu_share.* reports.
var profiledLayers = []string{"latency", "measure", "bgp", "serve", "nethttp", "gc"}

// shares returns every layer's share of the profile's samples and the
// sample count. A sample whose stack runs a GC worker or assist counts
// as gc. Otherwise it counts for the innermost frame that belongs to a
// repository package or to net/http: standard-library helpers (math,
// sort, allocation) are charged to the layer that called them. The
// benchmark's own frames count as main, the public package as
// shortcuts.
func (p *cpuProfile) shares() (map[string]float64, int64, error) {
	raw, err := os.ReadFile(p.path)
	if err != nil {
		return nil, 0, err
	}
	stacks, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("reading CPU profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[layerOf(s.frames)] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(counts))
	for _, l := range profiledLayers {
		out[l] = 0
	}
	for l, n := range counts {
		out[l] = float64(n) / float64(max(total, 1))
	}
	return out, total, nil
}

var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf attributes one stack (leaf first) to a layer.
func layerOf(frames []string) string {
	for _, f := range frames {
		for _, g := range gcRoots {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		pkg := funcPackage(f)
		switch {
		case strings.HasPrefix(pkg, "shortcuts/internal/"):
			return strings.SplitN(strings.TrimPrefix(pkg, "shortcuts/internal/"), "/", 2)[0]
		case pkg == "shortcuts" || pkg == "main":
			return pkg
		case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
			return "nethttp"
		}
	}
	return "other"
}

// funcPackage returns the import path of a symbol name such as
// "shortcuts/internal/latency.(*Engine).Ping". Type arguments of a
// generic function may hold import paths of their own, so they go
// first.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

type stack struct {
	count  int64
	frames []string // leaf first
}

// parseProfile decodes the samples of a gzipped pprof protobuf: each
// sample's first value and its stack of function names.
func parseProfile(raw []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location ID -> function IDs, leaf first
		fnName  = map[uint64]int64{}    // function ID -> string index
		strs    []string
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					if vals := appendVarints(nil, wire, v, b); first && len(vals) > 0 {
						s.value, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.value}
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the
// bytes.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		tag, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(tag>>3), int(tag&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
