package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// sample is one decoded CPU-profile sample: its stack as function names,
// leaf first (inlined frames expanded), and the CPU time it stands for.
type sample struct {
	stack []string
	ns    int64
}

// parseProfile decodes the samples of a gzipped runtime/pprof CPU profile.
// It reads only the fields folding needs (profile.proto: sample,
// location, function, string_table), so it needs nothing beyond the
// standard library.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, v, b)
				case 2:
					s.vals, err = appendUints(s.vals, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
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
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, sample{stack: stack, ns: int64(s.vals[1])})
	}
	return out, nil
}

// fields walks the top-level fields of a protobuf message, passing each
// field's number with its varint value (wire type 0) or its bytes (wire
// type 2). Fixed-width fields are skipped.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := uvarint(b)
			if n == 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := f(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed (b != nil) or not.
func appendUints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n == 0 {
			return dst, errors.New("profile: bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// uvarint decodes a protobuf varint, returning 0 bytes read on error.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Host-time owners. Every profiled sample is charged to exactly one, so the
// shares add up to 100%.
const (
	ownerGC    = "runtime.gc"
	ownerRT    = "runtime.other"
	ownerOther = "other"
)

// layers are the repro/internal packages that own host time. Packages not
// listed here (stats, rng, isa, sys) are utilities: like standard-library
// code, their time is charged to the nearest calling layer, so stats under
// report.Merge is report time and stats under the pipeline is pipeline
// time. workload covers its apache and specint subpackages.
var layers = []string{
	"pipeline", "cache", "tlb", "bpred", "conflict", "workload", "kernel",
	"mem", "netsim", "timerwheel", "flatmap", "checkpoint", "report",
	"core", "audit", "experiments",
}

const internalPrefix = "repro/internal/"

// gcFrames mark a sample as garbage-collector work wherever they appear in
// its stack (background marking, assists, sweeping, scavenging).
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.deductSweepCredit", "runtime.markroot", "runtime.gcStart",
}

// owner charges one sample's stack to a layer. GC work is runtime.gc; a
// leaf in the runtime (allocation, memmove, map access, scheduling) is
// runtime.other, as in pprof's flat view (Go's map implementation lives in
// internal/runtime/maps); anything else belongs to the
// innermost listed repro/internal layer on the stack, so encoding/gob and
// reflect under a checkpoint decode are checkpoint time.
func owner(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return ownerGC
			}
		}
	}
	if len(stack) > 0 && (strings.HasPrefix(stack[0], "runtime.") || strings.HasPrefix(stack[0], "internal/runtime/")) {
		return ownerRT
	}
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return ownerOther
}

// layerOf returns the listed layer a function belongs to, or "".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return ""
}

// onStack reports whether any of the functions appears in the stack.
func onStack(stack []string, fns ...string) bool {
	for _, s := range stack {
		for _, f := range fns {
			if s == f {
				return true
			}
		}
	}
	return false
}
