package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSharePackages are the groups the traced run reports a CPU share for:
// the simulator's heaviest layers, the daemon, telemetry and the Go runtime
// (scheduler, allocator and garbage collector).
var cpuSharePackages = []string{"cache", "trace", "sparse", "sim", "rcce", "spmv", "serve", "obs", "runtime"}

// cpuShares decodes a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) and returns each package group's share of the samples,
// attributing a sample to the innermost function of its leaf frame.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		leafCount = map[uint64]int64{}  // leaf location id -> samples
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			if err := pbFields(b, func(n int, v uint64, b []byte) error {
				var err error
				switch n {
				case 1:
					locs, err = pbAppendInts(locs, v, b)
				case 2:
					vals, err = pbAppendInts(vals, v, b)
				}
				return err
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				leafCount[locs[0]] += int64(vals[0])
			}
		case 4: // Location
			var id, fn uint64
			first := true
			if err := pbFields(b, func(n int, v uint64, b []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && first: // Line: the innermost frame comes first
					first = false
					return pbFields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := pbFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	shares := map[string]float64{}
	total := 0.0
	for loc, n := range leafCount {
		name := ""
		if i := funcName[locFunc[loc]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		shares[packageGroup(name)] += float64(n)
		total += float64(n)
	}
	if total == 0 {
		return shares, nil
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// packageGroup maps a profiled function name to its group: the package
// name under repro/internal, "runtime" for the Go runtime, "other" else.
func packageGroup(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold package paths
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		pkg = fn[:slash+1+i]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

var errTruncated = errors.New("truncated protobuf")

// pbVarint decodes one varint, returning it and the bytes it took.
func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// pbFields calls fn for every field of a protobuf message: varint fields
// pass their value, length-delimited ones their bytes. Fixed-width fields,
// which profile.proto does not use, are skipped.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n, err := pbVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n, err := pbVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return errTruncated
			}
			if err := fn(num, 0, b[:l]); err != nil {
				return err
			}
			b = b[l:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// pbAppendInts appends a repeated integer field's values, which arrive
// either one per field (data nil) or packed into data.
func pbAppendInts(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n, err := pbVarint(data)
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}
