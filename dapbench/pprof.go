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

// layers are the packages whose share of sampled CPU time the traced run
// reports; everything else rolls up into "other".
var layers = []string{"cache", "cpu", "sim", "dram", "mscache", "core", "policy",
	"workload", "ckpt", "obs", "mem", "runtime", "other"}

// layerOf maps a fully qualified function name to its layer.
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "dap/internal/"):
		name := pkg[len("dap/internal/"):]
		for _, l := range layers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// cpuByLayer decodes a gzipped profile.proto CPU profile, as written by
// runtime/pprof, and sums each sample's CPU nanoseconds into the layer of
// its leaf function.
func cpuByLayer(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leafLoc uint64
		value   int64
	}
	var (
		samples  []sample
		locFn    = map[uint64]uint64{} // location id → innermost function id
		fnName   = map[uint64]uint64{} // function id → string index
		strTable []string
	)
	// Profile fields: 2 sample, 4 location, 5 function, 6 string_table.
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: 1 location_id (leaf first), 2 value
			var s sample
			first := true
			return eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(v, b, func(x uint64) {
						if first {
							s.leafLoc, first = x, false
						}
					})
				case 2:
					// CPU profiles hold [samples, nanoseconds]; keep the last.
					return eachVarint(v, b, func(x uint64) { s.value = int64(x) })
				}
				return nil
			}, func() { samples = append(samples, s) })
		case 4: // Location: 1 id, 4 line (innermost first: 1 function_id)
			var id, fn uint64
			first := true
			return eachField(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && first:
					first = false
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					}, nil)
				}
				return nil
			}, func() { locFn[id] = fn })
		case 5: // Function: 1 id, 2 name
			var id, name uint64
			return eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}, func() { fnName[id] = name })
		case 6:
			strTable = append(strTable, string(b))
		}
		return nil
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		name := ""
		if i, ok := fnName[locFn[s.leafLoc]]; ok && i < uint64(len(strTable)) {
			name = strTable[i]
		}
		out[layerOf(name)] += float64(s.value)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// eachField walks the fields of one protobuf message, passing varint
// fields as v and length-delimited fields as b, then calls done.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error, done func()) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(msg) < w {
				return errProto
			}
			msg = msg[w:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	if done != nil {
		done()
	}
	return nil
}

// eachVarint yields a repeated integer field, packed (b) or not (v).
func eachVarint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
