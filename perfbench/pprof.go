package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes, keeping only what the layer attribution needs: each sample's
// CPU time, its stack as function names and files (innermost first,
// inlined frames expanded) and its string labels.

type frame struct{ fn, file string }

type sample struct {
	cpuNanos int64
	frames   []frame
	labels   map[string]string
}

type profile struct{ samples []sample }

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2
	fSampleLabel    = 3

	fLabelKey = 1
	fLabelStr = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
	fFunctionFile = 4
)

var errTruncated = errors.New("pprof: truncated message")

type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// next returns the next field's number and wire type, and its payload:
// the value for varints, the bytes for length-delimited fields.
func (r *pbReader) next() (num int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("pprof: wire type %d", wire)
	}
	return num, wire, v, data, err
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type rawSample struct {
	locs, values []uint64
	labels       [][2]uint64 // key, str (string table indexes)
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		types     []uint64 // sample type names, as string indexes
		raws      []rawSample
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64][2]uint64{} // name, file
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		num, wire, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch num {
		case fProfileSampleType:
			m := pbReader{data}
			for len(m.b) > 0 {
				n, _, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				if n == fValueTypeType {
					types = append(types, v)
				}
			}
		case fProfileSample:
			s, err := parseSample(data)
			if err != nil {
				return nil, err
			}
			raws = append(raws, s)
		case fProfileLocation:
			id, fns, err := parseLocation(data)
			if err != nil {
				return nil, err
			}
			locFuncs[id] = fns
		case fProfileFunction:
			m := pbReader{data}
			var id, name, file uint64
			for len(m.b) > 0 {
				n, _, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				case fFunctionFile:
					file = v
				}
			}
			funcNames[id] = [2]uint64{name, file}
		case fProfileStrings:
			if wire == 2 {
				strs = append(strs, string(data))
			}
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("pprof: no cpu sample type")
	}
	p := &profile{samples: make([]sample, 0, len(raws))}
	for _, rs := range raws {
		if cpu >= len(rs.values) {
			continue
		}
		s := sample{cpuNanos: int64(rs.values[cpu]), labels: map[string]string{}}
		for _, loc := range rs.locs {
			for _, fid := range locFuncs[loc] {
				fn := funcNames[fid]
				s.frames = append(s.frames, frame{fn: str(fn[0]), file: str(fn[1])})
			}
		}
		for _, l := range rs.labels {
			s.labels[str(l[0])] = str(l[1])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

func parseSample(data []byte) (rawSample, error) {
	var s rawSample
	m := pbReader{data}
	for len(m.b) > 0 {
		n, wire, v, d, err := m.next()
		if err != nil {
			return s, err
		}
		switch n {
		case fSampleLocation:
			s.locs, err = varints(s.locs, wire, v, d)
		case fSampleValue:
			s.values, err = varints(s.values, wire, v, d)
		case fSampleLabel:
			var key, val uint64
			l := pbReader{d}
			for len(l.b) > 0 {
				ln, _, lv, _, lerr := l.next()
				if lerr != nil {
					return s, lerr
				}
				switch ln {
				case fLabelKey:
					key = lv
				case fLabelStr:
					val = lv
				}
			}
			s.labels = append(s.labels, [2]uint64{key, val})
		}
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

// parseLocation returns a location's id and its function ids, innermost
// (inlined) first, as profile.proto orders them.
func parseLocation(data []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	m := pbReader{data}
	for len(m.b) > 0 {
		n, _, v, d, err := m.next()
		if err != nil {
			return 0, nil, err
		}
		switch n {
		case fLocationID:
			id = v
		case fLocationLine:
			l := pbReader{d}
			for len(l.b) > 0 {
				ln, _, lv, _, lerr := l.next()
				if lerr != nil {
					return 0, nil, lerr
				}
				if ln == fLineFunction {
					fns = append(fns, lv)
				}
			}
		}
	}
	return id, fns, nil
}
