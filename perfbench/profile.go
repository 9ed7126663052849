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

// moduleOf attributes a profile frame's function name to a module of this
// repository (the package directly under fastrl/internal), to "go" for the
// Go runtime, to "bench" for the benchmark itself, and to "std" for the
// rest of the standard library.
func moduleOf(fn string) string {
	const repo = "fastrl/internal/"
	switch {
	case strings.HasPrefix(fn, repo):
		rest := fn[len(repo):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "go"
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "fastrl/perfbench"):
		return "bench"
	}
	return "std"
}

// moduleCPU is CPU time folded by module from one or more CPU profiles.
// Self time charges a sample to the module of its leaf frame; cumulative
// time charges it once to every module anywhere on its stack.
type moduleCPU struct {
	self, cum   map[string]float64 // CPU nanoseconds
	selfN, cumN map[string]int     // samples
	samples     int
}

func newModuleCPU() *moduleCPU {
	return &moduleCPU{self: map[string]float64{}, cum: map[string]float64{},
		selfN: map[string]int{}, cumN: map[string]int{}}
}

// add folds one gzipped runtime/pprof CPU profile into m.
func (m *moduleCPU) add(gz []byte) error {
	p, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, s := range p.samples {
		if len(s.values) == 0 || len(s.locs) == 0 {
			continue
		}
		ns := float64(s.values[len(s.values)-1])
		var leaf string
		clear(seen)
		for i, loc := range s.locs {
			for j, fid := range p.locFuncs[loc] {
				mod := moduleOf(p.funcName(fid))
				if i == 0 && j == 0 {
					leaf = mod
				}
				if !seen[mod] {
					seen[mod] = true
					m.cum[mod] += ns
					m.cumN[mod]++
				}
			}
		}
		if leaf == "" {
			leaf = "std"
		}
		m.self[leaf] += ns
		m.selfN[leaf]++
		m.samples++
	}
	return nil
}

// topSelf returns the module with the most self time.
func (m *moduleCPU) topSelf() string {
	best, bestNs := "", -1.0
	for mod, ns := range m.self {
		if ns > bestNs || (ns == bestNs && mod < best) {
			best, bestNs = mod, ns
		}
	}
	return best
}

// rawProfile is the subset of the pprof profile.proto message the module
// fold needs.
type rawProfile struct {
	samples  []rawSample
	locFuncs map[uint64][]uint64 // location ID → function IDs, innermost first
	funcs    map[uint64]int64    // function ID → name index into strs
	strs     []string
}

type rawSample struct {
	locs   []uint64
	values []int64
}

func (p *rawProfile) funcName(id uint64) string {
	i, ok := p.funcs[id]
	if !ok || i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// decodeProfile parses a gzipped profile.proto as runtime/pprof writes it.
// Only the standard library is available, so this is a minimal protobuf
// reader for the fields above.
func decodeProfile(gz []byte) (*rawProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &rawProfile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type plus its varint value (wire types 0, 1, 5) or its
// bytes (wire type 2).
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
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
			v = binary.LittleEndian.Uint64(data)
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			v = uint64(binary.LittleEndian.Uint32(data))
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that may arrive packed
// (wire type 2) or one element at a time (wire type 0).
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
