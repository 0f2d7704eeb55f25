package main

import (
	"bufio"
	"fmt"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"edc"
)

// span is one timed call the benchmark made into a layer. Spans of one
// op share Req; Parent links a call to the cell or pass that caused it.
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      int64 // ns since the log's origin
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced passes pay one nil check per call.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// now reads the clock for a span, and skips it when nothing records.
func (l *spanLog) now() time.Time {
	if l == nil {
		return time.Time{}
	}
	return time.Now()
}

// open starts a span whose end is set by close, returning its id.
func (l *spanLog) open(parent, req int64, name string, start time.Time) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans)) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(l.origin).Nanoseconds(), End: -1})
	return id
}

func (l *spanLog) close(id int64, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = end.Sub(l.origin).Nanoseconds()
	l.mu.Unlock()
}

// add records a finished span.
func (l *spanLog) add(parent, req int64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: int64(len(l.spans)) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds()})
	l.mu.Unlock()
}

// total sums the durations of the spans with the given name.
func (l *spanLog) total(name string) time.Duration {
	var d int64
	for _, s := range l.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// write stores the spans as tab-separated lines:
// id parent req name start_ns end_ns.
func (l *spanLog) write(file string) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, s := range l.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Req, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counter is the edc.WithTracer observer of the traced pass: it counts
// the decisions the per-layer metrics need. Shards may emit from their
// own goroutines, hence the lock.
type counter struct {
	mu          sync.Mutex
	encodeBytes map[string]int64 // codec input bytes: policy choices and maintenance recompression
	decodeBytes map[string]int64 // read segments decompressed
	compressed  int64            // runs a codec compressed (slot events)
	saved       int64            // of those, runs that landed in a smaller slot
	frees       int64            // slots released: overwrites and last unrefs
}

func newCounter() *counter {
	return &counter{encodeBytes: map[string]int64{}, decodeBytes: map[string]int64{}}
}

// Emit implements edc.Tracer.
func (c *counter) Emit(e *edc.TraceEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e.Type {
	case edc.EvPolicy:
		c.encodeBytes[e.Codec] += e.Size
	case edc.EvRecompress:
		c.encodeBytes[e.Codec] += e.Size
	case edc.EvDecompress:
		c.decodeBytes[e.Codec] += e.Size
	case edc.EvSlot:
		c.compressed++
		if e.Reason != "oversize" {
			c.saved++
		}
	case edc.EvSlotFree, edc.EvUnref:
		c.frees++
	}
}

// Layers of the per-layer CPU attribution, named by module.
const (
	layerBWZEnc   = "bwz.encode_s"
	layerBWZDec   = "bwz.decode_s"
	layerGZEnc    = "gz.encode_s"
	layerGZDec    = "gz.decode_s"
	layerLZFEnc   = "lzf.encode_s"
	layerLZFDec   = "lzf.decode_s"
	layerDatagen  = "datagen.gen_s"
	layerPipeline = "pipeline.self_s"
	layerMeta     = "meta.self_s"
	layerDedup    = "dedup.self_s"
	layerMaint    = "maint.self_s"
	layerServe    = "serve.self_s"
	layerSSD      = "ssd.self_s"
	layerHarness  = "harness.self_s"
	layerGC       = "runtime" // collector work; reported as runtime.gc_cpu_share
)

var cpuLayers = []string{layerBWZEnc, layerBWZDec, layerGZEnc, layerGZDec, layerLZFEnc, layerLZFDec,
	layerDatagen, layerPipeline, layerMeta, layerDedup, layerMaint, layerServe, layerSSD, layerHarness}

// coreFileLayer splits internal/core, the largest module, by file.
var coreFileLayer = map[string]string{
	"mapping.go":     layerMeta,
	"alloc.go":       layerMeta,
	"journal.go":     layerMeta,
	"persist.go":     layerMeta,
	"recovery.go":    layerMeta,
	"maintenance.go": layerMaint,
	"serve.go":       layerServe,
	"shard.go":       layerServe,
	"resplit.go":     layerServe,
}

// pkgLayer maps the other modules to layers. huffman, bitio and the
// compress registry are missing on purpose: their time belongs to the
// codec that called them.
var pkgLayer = map[string]string{
	"edc/internal/datagen":  layerDatagen,
	"edc/internal/dedup":    layerDedup,
	"edc/internal/maint":    layerMaint,
	"edc/internal/parallel": layerServe,
	"edc/internal/ssd":      layerSSD,
	"edc/internal/rais":     layerSSD,
	"edc/internal/hdd":      layerSSD,
	"edc/internal/sim":      layerPipeline,
	"edc/internal/cache":    layerPipeline,
	"edc/internal/obs":      layerPipeline,
	"edc/internal/metrics":  layerPipeline,
	"edc/internal/trace":    layerPipeline,
	"edc/internal/qos":      layerPipeline,
	"edc/internal/fault":    layerPipeline,
	"edc":                   layerPipeline,
	"edc/internal/workload": layerHarness,
	"edc/internal/bench":    layerHarness,
	"main":                  layerHarness,
}

var codecPkg = map[string][2]string{
	"edc/internal/compress/bwz":  {layerBWZEnc, layerBWZDec},
	"edc/internal/compress/gz":   {layerGZEnc, layerGZDec},
	"edc/internal/compress/lzf":  {layerLZFEnc, layerLZFDec},
	"edc/internal/compress/lz4x": {layerLZFEnc, layerLZFDec},
}

// classify names the layer a sample's CPU belongs to: that of the
// innermost frame in a repository module (so runtime work such as
// allocation is billed to its caller), the collector for background GC
// stacks, and "" when nothing matches.
func classify(frames []frame) string {
	for i, f := range frames {
		pkg := funcPackage(f.fn)
		if c, ok := codecPkg[pkg]; ok {
			// Decoding is whatever runs under the codec's (or the
			// registry's) Decompress entry points.
			for _, g := range frames[i:] {
				if gp := funcPackage(g.fn); gp != pkg && gp != "edc/internal/compress" {
					break
				}
				if strings.Contains(g.fn, "Decompress") || strings.Contains(g.fn, "decompress") {
					return c[1]
				}
			}
			return c[0]
		}
		if pkg == "edc/internal/core" {
			if l, ok := coreFileLayer[path.Base(f.file)]; ok {
				return l
			}
			return layerPipeline
		}
		if l, ok := pkgLayer[pkg]; ok {
			return l
		}
	}
	for _, f := range frames {
		switch f.fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return layerGC
		}
	}
	return ""
}

// funcPackage returns the import path of a symbol such as
// "edc/internal/core.(*Device).Play".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other paths
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// attribution is the traced pass's CPU split by layer.
type attribution struct {
	seconds      map[string]float64
	total        float64 // CPU seconds outside set-up
	unattributed float64
	byCell       map[string]map[string]float64
}

// attribute splits a CPU profile by layer, leaving out samples labelled
// phase=setup.
func attribute(p *profile) attribution {
	a := attribution{seconds: map[string]float64{}, byCell: map[string]map[string]float64{}}
	for _, s := range p.samples {
		if s.labels["phase"] == "setup" {
			continue
		}
		sec := float64(s.cpuNanos) / 1e9
		a.total += sec
		l := classify(s.frames)
		if l == "" {
			a.unattributed += sec
			l = "unattributed"
		} else {
			a.seconds[l] += sec
		}
		cell := s.labels["cell"]
		if a.byCell[cell] == nil {
			a.byCell[cell] = map[string]float64{}
		}
		a.byCell[cell][l] += sec
	}
	return a
}

// writeTable stores the per-cell layer split as tab-separated lines.
func (a attribution) writeTable(file string) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "cell\tlayer\tcpu_s")
	cells := make([]string, 0, len(a.byCell))
	for c := range a.byCell {
		cells = append(cells, c)
	}
	sort.Strings(cells)
	for _, c := range cells {
		layers := make([]string, 0, len(a.byCell[c]))
		for l := range a.byCell[c] {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		name := c
		if name == "" {
			name = "(unlabelled)"
		}
		for _, l := range layers {
			fmt.Fprintf(w, "%s\t%s\t%.6f\n", name, l, a.byCell[c][l])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
