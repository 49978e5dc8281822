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

// internalPrefix marks the program's own packages in profile function
// names, e.g. "oceanstore/internal/sim.(*Kernel).run".
const internalPrefix = "oceanstore/internal/"

// cpuModules are the modules reported as cpu.<module>.  Samples whose
// innermost internal frame lies in a module not listed here count as
// cpu.other, so the shares still sum to 1 when a module is added.
var cpuModules = []string{
	"sim", "simnet", "byz", "crypt", "epidemic", "update", "object", "merkle",
	"replica", "dtree", "archive", "erasure", "blobstore", "plaxton",
	"introspect", "obs", "workload", "core", "acl", "guid",
}

// moduleOf names the internal module a function belongs to, or "" for
// anything outside oceanstore/internal (standard library, runtime, the
// benchmark runner).
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute splits sample weight across modules.  Each stack lists
// function names innermost first; the sample goes to the innermost
// frame inside oceanstore/internal, so standard-library and runtime
// callees count toward the module that called them (ed25519 under
// crypt.Signer.Sign is crypt, mallocgc under simnet is simnet).  A
// stack with no internal frame goes to "runtime".  The result maps
// "cpu.<module>" to a share of the total weight; every reported key is
// present, and the shares sum to 1 unless there was no weight at all.
func attribute(stacks [][]string, weights []int64) map[string]float64 {
	known := make(map[string]bool, len(cpuModules))
	out := make(map[string]float64, len(cpuModules)+2)
	for _, m := range cpuModules {
		known[m] = true
		out["cpu."+m] = 0
	}
	out["cpu.runtime"] = 0
	out["cpu.other"] = 0
	var total float64
	for i, st := range stacks {
		w := float64(weights[i])
		total += w
		key := "cpu.runtime"
		for _, fn := range st {
			if m := moduleOf(fn); m != "" {
				key = "cpu.other"
				if known[m] {
					key = "cpu." + m
				}
				break
			}
		}
		out[key] += w
	}
	if total > 0 {
		for k, v := range out {
			out[k] = v / total
		}
	}
	return out
}

// cpuProfile is the part of a pprof profile attribution needs: one
// stack of function names (innermost first, inlined frames expanded)
// and one weight per sample.
type cpuProfile struct {
	stacks  [][]string
	weights []int64
}

// parseCPUProfile decodes the gzip-compressed profile.proto that
// runtime/pprof writes.  It reads only sample, location, function and
// string_table; the weight is the last sample value (CPU nanoseconds
// for a CPU profile).
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, wt, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, wt, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, wt int, v uint64, b []byte) error {
						if f == 1 {
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
			err := eachField(b, func(f int, wt int, v uint64, b []byte) error {
				switch f {
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
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				if idx := fnName[fid]; idx >= 0 && idx < int64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.weights = append(p.weights, s.values[len(s.values)-1])
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with the field
// number, wire type, varint value (wire type 0) or payload (wire type
// 2).  Fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUints handles a repeated integer field in either encoding:
// one varint per field (wire type 0) or a packed run (wire type 2).
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
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
