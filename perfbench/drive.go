package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"edc"
	"edc/internal/metrics"
	"edc/internal/parallel"
)

// cellRun is what one cell measured.
type cellRun struct {
	res       *edc.Results
	lat       *metrics.LatencyHist // virtual latency of every completed op
	done      int64                // ops completed
	attempted int64
	failed    int64 // errors, refusals and verify mismatches
	err       error
	wall      time.Duration // timed region
	cpu       time.Duration // process user+sys CPU in the timed region
	heapMiB   float64       // live heap after forced GCs, System reachable
	lastEnd   time.Duration // serve: latest virtual completion
	stalls    int64         // serve: submissions that found a full mailbox
	rt        rtDelta       // Go runtime activity in the timed region
	pool      parallel.PoolStats
}

// passRun is one pass: every cell of the workload once.
type passRun struct {
	cells  []cellRun
	setup  time.Duration
	digest string
}

// passCtx carries what a pass records besides the measurements. The
// zero value runs untraced.
type passCtx struct {
	workload string
	measured bool     // an untraced pass: warm up in set-up, read the live heap after each cell
	labels   bool     // pprof.Do labels (the traced pass profiles)
	tracer   *counter // decision counts via edc.WithTracer
	spans    *spanLog
}

// do runs f, under pprof labels when the pass is profiled. Samples in
// phase=setup are left out of the per-layer attribution.
func (pc *passCtx) do(phase, cell string, f func()) {
	if !pc.labels {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("workload", pc.workload, "cell", cell, "phase", phase),
		func(context.Context) { f() })
}

// runPass generates the workload's inputs, then runs each cell on a
// fresh System. Set-up time is input generation, the warm-up, and every
// NewSystem; the timed region of a cell is Play, or Serve through
// StopServe.
func runPass(w *workloadDef, seed int64, pc *passCtx) (*passRun, []cell, error) {
	t0 := time.Now()
	root := pc.spans.open(0, 0, "pass", t0)
	var cells []cell
	var err error
	pc.do("setup", "inputs", func() { cells, err = w.cells(seed) })
	pc.spans.add(root, 0, "generate", t0, time.Now())
	if err != nil {
		return nil, nil, err
	}
	if pc.measured {
		pc.do("setup", "warm-up", func() { err = warmUp() })
		if err != nil {
			return nil, nil, err
		}
	}
	p := &passRun{setup: time.Since(t0)}
	h := sha256.New()
	for i := range cells {
		r, setup := runCell(&cells[i], i, root, pc)
		p.setup += setup
		p.cells = append(p.cells, r)
		fmt.Fprintf(h, "%s\n", cells[i].name)
		h.Write(canonical(&r))
	}
	pc.spans.close(root, time.Now())
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, cells, nil
}

// runCell builds the cell's System and runs it, returning the
// measurements and the NewSystem time.
func runCell(c *cell, idx int, parent int64, pc *passCtx) (cellRun, time.Duration) {
	attempted := int64(len(c.ops))
	if c.trace != nil {
		attempted = int64(len(c.trace.Requests))
	}
	t0 := time.Now()
	cs := pc.spans.open(parent, int64(idx), "cell:"+c.name, t0)
	opts := c.opts
	if pc.tracer != nil {
		opts = append(opts[:len(opts):len(opts)], edc.WithTracer(pc.tracer))
	}
	var sys *edc.System
	var err error
	pc.do("setup", c.name, func() { sys, err = edc.NewSystem(c.vol, opts...) })
	setup := time.Since(t0)
	pc.spans.add(cs, int64(idx), "NewSystem", t0, t0.Add(setup))
	if err != nil {
		return cellRun{attempted: attempted, failed: attempted, err: fmt.Errorf("%s: NewSystem: %w", c.name, err)}, setup
	}

	rt0 := readRuntime()
	pool0 := parallel.Shared().Stats()
	cpu0 := cpuTime()
	w0 := time.Now()
	var r cellRun
	pc.do("timed", c.name, func() {
		if c.trace != nil {
			r = playCell(sys, c, cs, idx, pc.spans)
		} else {
			r = serveCell(sys, c, cs, idx, pc.spans)
		}
	})
	r.wall = time.Since(w0)
	r.cpu = cpuTime() - cpu0
	r.rt = readRuntime().sub(rt0)
	pool1 := parallel.Shared().Stats()
	r.pool = parallel.PoolStats{
		Workers:   pool1.Workers,
		Submitted: pool1.Submitted - pool0.Submitted,
		Stolen:    pool1.Stolen - pool0.Stolen,
		Inline:    pool1.Inline - pool0.Inline,
	}
	r.attempted = attempted
	pc.spans.close(cs, time.Now())
	if r.err != nil {
		r.err = fmt.Errorf("%s: %w", c.name, r.err)
	}
	if pc.measured {
		// Two cycles: the first moves sync.Pool caches to their victim
		// lists, the second frees them, so only retained state remains.
		runtime.GC()
		runtime.GC()
		r.heapMiB = float64(readRuntimeValue("/gc/heap/live:bytes")) / (1 << 20)
		runtime.KeepAlive(sys)
	}
	return r, setup
}

// playCell replays the cell's trace. A replay error, an unrecovered
// read, a request lost to a crash, or a request that never completed
// counts as failed; a verify mismatch surfaces as a replay error.
func playCell(sys *edc.System, c *cell, parent int64, idx int, spans *spanLog) cellRun {
	t0 := spans.now()
	res, err := sys.Play(c.trace)
	spans.add(parent, int64(idx), "Play", t0, spans.now())
	n := int64(len(c.trace.Requests))
	r := cellRun{res: res, lat: metrics.NewLatencyHist()}
	if res != nil {
		r.done = res.Requests
		r.lat = res.Resp
		r.failed = res.UnrecoveredReads + res.CrashLost
		if err == nil && res.Err != nil {
			err = res.Err
		}
	}
	switch {
	case err != nil:
		r.err = err
		r.failed += max(1, n-r.done)
	case r.done != n:
		r.err = fmt.Errorf("%d of %d requests completed", r.done, n)
		r.failed += n - r.done
	}
	return r
}

// serveCell serves the cell's stream open loop: one sequencer submits
// every op in stamp order through SubmitAt without waiting, one awaiter
// collects completions in submission order, and StopServe drains the
// rest. Under pacing a completion is released only by a later arrival,
// so the awaiter's queue holds every op and never blocks the sequencer.
func serveCell(sys *edc.System, c *cell, parent int64, idx int, spans *spanLog) cellRun {
	r := cellRun{lat: metrics.NewLatencyHist()}
	t0 := spans.now()
	err := sys.Serve()
	spans.add(parent, int64(idx), "Serve", t0, spans.now())
	if err != nil {
		r.err = err
		r.failed = int64(len(c.ops))
		return r
	}
	type pending struct {
		i  int
		aw edc.Await
	}
	ctx := context.Background()
	queue := make(chan pending, len(c.ops)) // one slot per op: the sequencer never waits
	var got struct {                        // the awaiter's tally, read after it exits
		done, failed int64
		lastEnd      time.Duration
		err          error
	}
	awaited := make(chan struct{})
	go func() {
		defer close(awaited)
		for p := range queue {
			ta := spans.now()
			lat, err := p.aw(ctx)
			spans.add(parent, reqID(idx, p.i), "await", ta, spans.now())
			if err != nil {
				got.failed++
				got.err = err
				continue
			}
			r.lat.Observe(lat)
			got.done++
			got.lastEnd = max(got.lastEnd, c.ops[p.i].At+lat)
		}
	}()
	for i, op := range c.ops {
		ts := spans.now()
		aw, err := sys.SubmitAt(ctx, op.At, op.Off, op.Size, op.Write)
		spans.add(parent, reqID(idx, i), "SubmitAt", ts, spans.now())
		if err != nil {
			r.failed++
			r.err = err
			continue
		}
		queue <- pending{i, aw}
	}
	r.stalls = sys.ServeStalls()
	tstop := spans.now()
	res, err := sys.StopServe()
	spans.add(parent, int64(idx), "StopServe", tstop, spans.now())
	close(queue)
	<-awaited
	r.res = res
	r.done, r.lastEnd = got.done, got.lastEnd
	r.failed += got.failed
	if r.err == nil {
		r.err = got.err
	}
	if err != nil {
		r.err = err
		r.failed = max(r.failed, 1)
	}
	if res != nil {
		r.failed += res.UnrecoveredReads
	}
	if r.done+r.failed != int64(len(c.ops)) && r.err == nil {
		r.err = fmt.Errorf("%d of %d ops accounted for", r.done+r.failed, len(c.ops))
	}
	return r
}

// reqID gives every op of a pass its own request id; spans of one op
// share it.
func reqID(cell, op int) int64 { return int64(cell)<<32 | int64(op) }

// canonical is the cell's virtual result in a form that must be
// byte-identical on every repetition: the Report minus what depends on
// the host (serve backpressure) or on observation (decision counters),
// plus the open-loop latency summary for serve cells.
func canonical(r *cellRun) []byte {
	var rep *edc.Report
	if r.res != nil {
		rep = r.res.Report()
		rep.Obs = nil
		rep.SubmitStalls = 0
	}
	b, err := json.Marshal(struct {
		Report         *edc.Report
		Done, Failed   int64
		Mean, P50, P99 time.Duration
		LastEnd        time.Duration
		Err            string
	}{rep, r.done, r.failed, r.lat.Mean(), r.lat.Percentile(50), r.lat.Percentile(99), r.lastEnd, errString(r.err)})
	if err != nil {
		panic(err) // plain structs and maps always marshal
	}
	return b
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtDelta is Go runtime activity between two readings.
type rtDelta struct {
	gcCycles   uint64
	allocBytes uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtDelta {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return rtDelta{
		gcCycles:   s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

func (a rtDelta) sub(b rtDelta) rtDelta {
	return rtDelta{a.gcCycles - b.gcCycles, a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a *rtDelta) add(b rtDelta) {
	a.gcCycles += b.gcCycles
	a.allocBytes += b.allocBytes
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
}

func readRuntimeValue(name string) uint64 {
	s := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}
