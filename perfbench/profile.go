package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the program's packages whose self time the traced run
// reports; "other" collects the remaining internal packages and "runtime"
// every sample with no ftmrmpi/internal frame at all.
var cpuModules = []string{"vtime", "mpi", "core", "kvbuf", "storage", "trace", "metrics", "introspect", "workloads", "other", "runtime"}

const internalPrefix = "ftmrmpi/internal/"

// moduleShares decodes a runtime/pprof CPU profile and returns each
// module's share of the sampled CPU time. A sample belongs to the innermost
// ftmrmpi/internal/<module> frame on its stack (inlined frames included).
func moduleShares(gzProfile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gzProfile))
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
	known := make(map[string]bool, len(cpuModules))
	for _, m := range cpuModules {
		known[m] = true
	}
	// module of each location: its innermost internal frame, if any.
	locModule := make(map[uint64]string, len(p.locations))
	for id, fns := range p.locations {
		for _, fn := range fns {
			name := p.strings[p.functions[fn]]
			if !strings.HasPrefix(name, internalPrefix) {
				continue
			}
			mod := name[len(internalPrefix):]
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			if !known[mod] {
				mod = "other"
			}
			locModule[id] = mod
			break
		}
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		shares[m] = 0
	}
	var total float64
	for _, s := range p.samples {
		mod := "runtime"
		for _, loc := range s.locs {
			if m, ok := locModule[loc]; ok {
				mod = m
				break
			}
		}
		shares[mod] += s.value
		total += s.value
	}
	if total > 0 {
		for m := range shares {
			shares[m] /= total
		}
	}
	return shares, nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name index in strings
	strings   []string
}

type sample struct {
	locs  []uint64 // leaf first
	value float64  // CPU nanoseconds (the last sample value)
}

// decodeProfile parses the fields of a protobuf-encoded profile used by
// moduleShares: Profile.sample (2), .location (4), .function (5) and
// .string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s sample
			var values []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, d)
				case 2:
					values = appendPacked(values, v, d)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = float64(int64(values[len(values)-1]))
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
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
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
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
	if err != nil {
		return nil, err
	}
	for _, idx := range p.functions {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function name index %d out of range", idx)
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field that arrived either as one
// varint (data == nil) or packed into a length-delimited blob.
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with the field number
// and either the varint value or the length-delimited payload (nil for
// varints). Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
