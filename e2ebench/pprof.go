package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// A minimal reader for the runtime's gzipped profile.proto output: just
// enough to walk each sample's stack, so profiles can be attributed to
// layers without a module dependency on a pprof library.

// profile holds the samples of one decoded profile, each stack listed
// innermost function first.
type profile struct {
	samples []profSample
}

type profSample struct {
	stack  []string
	values []int64
}

var errProto = errors.New("pprof: malformed profile")

// protoField is one decoded field: its number, wire type, and either a
// varint value or the bytes of a length-delimited payload.
type protoField struct {
	num  int
	typ  int
	v    uint64
	data []byte
}

// protoFields decodes a protobuf message into its fields.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), typ: int(key & 7)}
		switch f.typ {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f protoField) varints() ([]uint64, error) {
	if f.typ == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes a gzipped profile.proto.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcs := map[uint64]uint64{}  // function id -> name string index
	locs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type rawSample struct{ locs, values []uint64 }
	var samples []rawSample
	for _, f := range top {
		if f.typ != 2 {
			continue
		}
		if f.num == 6 { // string table
			strs = append(strs, string(f.data))
			continue
		}
		if f.num != 2 && f.num != 4 && f.num != 5 {
			continue
		}
		sub, err := protoFields(f.data)
		if err != nil {
			return nil, err
		}
		switch f.num {
		case 2: // Sample
			var s rawSample
			for _, g := range sub {
				if g.num != 1 && g.num != 2 {
					continue // labels
				}
				vs, err := g.varints()
				if err != nil {
					return nil, err
				}
				if g.num == 1 {
					s.locs = append(s.locs, vs...)
				} else {
					s.values = append(s.values, vs...)
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch {
				case g.num == 1:
					id = g.v
				case g.num == 4 && g.typ == 2: // Line
					line, err := protoFields(g.data)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
			}
			funcs[id] = name
		}
	}
	p := &profile{}
	for _, s := range samples {
		ps := profSample{}
		for _, v := range s.values {
			ps.values = append(ps.values, int64(v))
		}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if i := funcs[fn]; i < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// layerOf maps a profiled function to the repository module it belongs
// to, or "" for code outside the repository.
func layerOf(fn string) string {
	const mod = "github.com/p2pgossip/update"
	if strings.HasPrefix(fn, "main.") {
		return "loadgen"
	}
	if !strings.HasPrefix(fn, mod) {
		return ""
	}
	rest := fn[len(mod):]
	if strings.HasPrefix(rest, ".") {
		return "pushpull"
	}
	rest = strings.TrimPrefix(rest, "/internal/")
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	switch rest {
	case "engine", "pf", "replicalist":
		return "engine"
	case "serve", "live", "store", "version", "wire", "wal", "metrics":
		return rest
	}
	return "other"
}

// innermostLayer is the layer of the innermost repository frame of a
// stack; samples without one go to the benchmark's own "loadgen" bucket
// when its frames are on the stack, else to "http" or "runtime".
func innermostLayer(stack []string) string {
	sawLoadgen, sawHTTP := false, false
	for _, fn := range stack {
		switch l := layerOf(fn); l {
		case "":
			if strings.HasPrefix(fn, "net/http.") {
				sawHTTP = true
			}
		case "loadgen":
			sawLoadgen = true
		default:
			return l
		}
	}
	switch {
	case sawLoadgen:
		return "loadgen"
	case sawHTTP:
		return "http"
	}
	return "runtime"
}

// outermostLayer is the layer of the outermost repository frame, "" if
// none: the code that started the goroutine.
func outermostLayer(stack []string) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if l := layerOf(stack[i]); l != "" && l != "loadgen" {
			return l
		}
	}
	return ""
}

// byLayer sums the last value of each sample (CPU or delay nanoseconds)
// per innermostLayer, keeping only samples keep accepts.
func (p *profile) byLayer(keep func(stack []string) bool) map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.samples {
		if len(s.values) == 0 || (keep != nil && !keep(s.stack)) {
			continue
		}
		out[innermostLayer(s.stack)] += float64(s.values[len(s.values)-1])
	}
	return out
}
