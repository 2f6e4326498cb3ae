package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is decoded here with the standard library alone: a
// runtime/pprof profile is a gzipped protocol buffer (profile.proto), and the
// attribution below needs only its samples, locations, functions and
// strings.

// cpuProfile is the part of a decoded profile the attribution reads.
type cpuProfile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost inline frame first
	funcs   map[uint64]int64    // function id -> name index into strs
	strs    []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

// pbuf is a protocol-buffer wire-format reader.
type pbuf struct {
	b   []byte
	err error
}

var errTruncated = errors.New("pprof: truncated message")

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = errTruncated
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("pprof: varint overflow")
	return 0
}

// field reads the next field's number, wire type, and payload: the value for
// a varint, the bytes for a length-delimited field.
func (p *pbuf) field() (num int, wire int, v uint64, data []byte) {
	key := p.varint()
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = p.varint()
	case 1:
		if len(p.b) < 8 {
			p.err = errTruncated
			return
		}
		p.b = p.b[8:]
	case 2:
		n := p.varint()
		if uint64(len(p.b)) < n {
			p.err = errTruncated
			return
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			p.err = errTruncated
			return
		}
		p.b = p.b[4:]
	default:
		p.err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	q := pbuf{b: data}
	for len(q.b) > 0 && q.err == nil {
		dst = append(dst, q.varint())
	}
	return dst, q.err
}

// parseProfile decodes a gzipped pprof CPU profile.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	prof := &cpuProfile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	p := pbuf{b: raw}
	for len(p.b) > 0 && p.err == nil {
		num, _, _, data := p.field()
		if p.err != nil {
			break
		}
		switch num {
		case 2: // sample
			s, err := parseSample(data)
			if err != nil {
				return nil, err
			}
			prof.samples = append(prof.samples, s)
		case 4: // location
			id, fns, err := parseLocation(data)
			if err != nil {
				return nil, err
			}
			prof.locs[id] = fns
		case 5: // function
			id, name, err := parseFunction(data)
			if err != nil {
				return nil, err
			}
			prof.funcs[id] = name
		case 6: // string table
			prof.strs = append(prof.strs, string(data))
		}
	}
	return prof, p.err
}

func parseSample(data []byte) (profSample, error) {
	var s profSample
	var vals []uint64
	q := pbuf{b: data}
	for len(q.b) > 0 && q.err == nil {
		num, wire, v, d := q.field()
		var err error
		switch num {
		case 1:
			s.locs, err = uints(s.locs, wire, v, d)
		case 2:
			vals, err = uints(vals, wire, v, d)
		}
		if err != nil {
			return s, err
		}
	}
	if len(vals) > 0 {
		s.count = int64(vals[0]) // sample types are [samples/count, cpu/nanoseconds]
	}
	return s, q.err
}

func parseLocation(data []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	q := pbuf{b: data}
	for len(q.b) > 0 && q.err == nil {
		num, _, v, d := q.field()
		switch num {
		case 1:
			id = v
		case 4: // line: function_id = 1
			l := pbuf{b: d}
			for len(l.b) > 0 && l.err == nil {
				if n, _, fv, _ := l.field(); n == 1 {
					fns = append(fns, fv)
				}
			}
			if l.err != nil {
				return 0, nil, l.err
			}
		}
	}
	return id, fns, q.err
}

func parseFunction(data []byte) (uint64, int64, error) {
	var id uint64
	var name int64
	q := pbuf{b: data}
	for len(q.b) > 0 && q.err == nil {
		num, _, v, _ := q.field()
		switch num {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
	}
	return id, name, q.err
}

// cpuLayers are the layers the sampled shares split the event loop into.
// Samples with no repro frame at all (GC workers, the scheduler) are
// "runtime"; frames of the benchmark itself and of packages outside these
// layers (core outside the strategy, harness, topology, workload, failure)
// are "other".
var cpuLayers = []string{"sim", "mac", "diffusion", "strategy", "metrics", "obs", "runtime", "other"}

// layerOf names the layer a frame belongs to. Helper packages (message
// keys, aggregation functions, geometry, energy meters, statistics) do work
// for their caller, so they return "" and attribution moves outward; so do
// the runtime and the standard library, which a layer calls to allocate,
// hash or sort.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "other"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	pkg, sym, _ := strings.Cut(rest, ".")
	switch pkg {
	case "sim", "mac", "diffusion", "metrics", "obs":
		return pkg
	case "trace":
		return "obs"
	case "setcover", "opportunistic":
		return "strategy"
	case "core":
		if strings.Contains(sym, "Strategy") {
			return "strategy"
		}
		return "other"
	case "msg", "agg", "geom", "energy", "stats":
		return ""
	default:
		return "other"
	}
}

// attribute splits the profile's samples by the innermost frame that
// belongs to a layer, and counts the samples whose stack contains a
// function whose name has marker as a substring (marker "" counts none).
func (p *cpuProfile) attribute(marker string) (shares map[string]int64, total, marked int64) {
	shares = map[string]int64{}
	for _, s := range p.samples {
		total += s.count
		layer, hit := "", false
		for _, loc := range s.locs {
			for _, fid := range p.locs[loc] {
				name := p.funcName(fid)
				if layer == "" {
					layer = layerOf(name)
				}
				if marker != "" && strings.Contains(name, marker) {
					hit = true
				}
			}
		}
		if layer == "" {
			layer = "runtime"
		}
		shares[layer] += s.count
		if hit {
			marked += s.count
		}
	}
	return shares, total, marked
}

func (p *cpuProfile) funcName(fid uint64) string {
	i := p.funcs[fid]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}
