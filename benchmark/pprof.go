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

// cpuLayers is the fixed order of the cpu.* shares.
var cpuLayers = []string{
	"crypto", "sim", "chain", "contracts", "party", "engine", "arena", "fleet", "gc", "other",
}

// pkgLayer maps each xdeal/internal package to the layer its CPU counts
// toward. Packages missing here (test harnesses, lint) count as other.
var pkgLayer = map[string]string{
	"sig": "crypto", "bft": "crypto",
	"sim":   "sim",
	"chain": "chain", "feemarket": "chain", "bundle": "chain",
	"escrow": "contracts", "timelock": "contracts", "cbc": "contracts", "hedge": "contracts",
	"htlc": "contracts", "token": "contracts", "gas": "contracts",
	"party": "party", "watchtower": "party", "incentive": "party",
	"engine": "engine", "trace": "engine", "clearing": "engine", "deal": "engine",
	"arena": "arena",
	"fleet": "fleet", "obs": "fleet",
}

// gcRoots are the runtime's background collector goroutines.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// classify assigns one sample's stack (leaf first) to a layer: any
// crypto/* frame makes it crypto, a background GC goroutine makes it gc,
// and otherwise the innermost xdeal/internal/<pkg> frame decides.
func classify(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "crypto/") {
			return "crypto"
		}
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "xdeal/internal/")
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if layer, ok := pkgLayer[pkg]; ok {
			return layer
		}
		return "other"
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time, plus the sample count. Shares sum to 1.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	prof, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	weight := make(map[string]int64)
	var total, samples int64
	for _, s := range prof.samples {
		stack := make([]string, 0, len(s.locs)*2)
		for _, id := range s.locs {
			for _, fid := range prof.locFuncs[id] {
				stack = append(stack, prof.funcNames[fid])
			}
		}
		// value[0] is the sample count, value[1] nanoseconds.
		v := s.values[len(s.values)-1]
		weight[classify(stack)] += v
		total += v
		samples += s.values[0]
	}
	if total == 0 {
		return nil, 0, errors.New("cpu profile holds no samples")
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, layer := range cpuLayers {
		shares[layer] = float64(weight[layer]) / float64(total)
	}
	return shares, samples, nil
}

// profile is the subset of profile.proto the layer split needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost inlined first
	funcNames map[uint64]string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes the protobuf wire format of a pprof profile
// (github.com/google/pprof/proto/profile.proto) without dependencies.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locFuncs: make(map[uint64][]uint64), funcNames: make(map[uint64]string)}
	funcNameIdx := make(map[uint64]uint64)
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(s.values) == 0 {
				return errors.New("sample without values")
			}
			p.samples = append(p.samples, s)
			return nil
		case 4: // location
			var id uint64
			var funcs []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for id, idx := range funcNameIdx {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("cpu profile: function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcNames[id] = strs[idx]
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field number
// and either its varint value (b nil) or its length-delimited bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field, packed (b set) or not.
func varints(v uint64, b []byte, yield func(uint64)) error {
	if b == nil {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
