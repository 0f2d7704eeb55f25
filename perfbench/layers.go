package main

import (
	"runtime"
	"time"
)

// perLayer computes the traced run's metrics. CPU self time per layer,
// decision counts and span totals come from the traced pass b; host,
// pool and Go runtime activity from the untraced pass a, which tracing
// would perturb; Report counts are identical in both (same digest).
func perLayer(cells []cell, a, b *passRun, att attribution, tc *passCtx) map[string]metric {
	m := map[string]metric{}
	for _, l := range cpuLayers {
		m[l] = metric{att.seconds[l], "s"}
	}
	m["unattributed"] = metric{ratio(att.unattributed, att.total), "ratio"}

	var (
		wallA, wallB, cpuA                 time.Duration
		rt                                 rtDelta
		done, attempted, failed, stalls    int64
		submitted, stolen, inline          int64
		sdRuns, sdMerged, flash, erases    int64
		hits, misses, dHits, dMiss, dSaved int64
		reloc, aborted, reclaimed, runs    int64
		writeThrough, origBytes            int64
	)
	for i := range cells {
		ra, rb := a.cells[i], b.cells[i]
		wallA += ra.wall
		wallB += rb.wall
		cpuA += ra.cpu
		rt.add(ra.rt)
		done += ra.done
		attempted += ra.attempted + rb.attempted
		failed += ra.failed + rb.failed
		stalls += ra.stalls
		submitted += ra.pool.Submitted
		stolen += ra.pool.Stolen
		inline += ra.pool.Inline
		rep := ra.res
		if rep == nil {
			continue
		}
		sdRuns += rep.SDRuns
		sdMerged += rep.SDMerged
		flash += rep.TotalFlashWrites()
		erases += rep.TotalErases()
		hits += rep.Cache.Hits
		misses += rep.Cache.Misses
		dHits += rep.DedupHits
		dMiss += rep.DedupMisses
		dSaved += rep.DedupBytesSaved
		reloc += rep.MaintRelocations
		aborted += rep.MaintAborted
		reclaimed += rep.MaintReclaimed
		writeThrough += rep.WriteThrough
		origBytes += rep.OrigBytes
		for _, n := range rep.RunsByTag {
			runs += n
		}
	}
	tr := tc.tracer
	const mib = 1 << 20
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	set("bwz.encode_mb", float64(tr.encodeBytes["bwz"])/mib, "MiB")
	set("gz.encode_mb", float64(tr.encodeBytes["gz"])/mib, "MiB")
	set("gz.decode_mb", float64(tr.decodeBytes["gz"])/mib, "MiB")
	set("lzf.encode_mb", float64(tr.encodeBytes["lzf"]+tr.encodeBytes["lz4"])/mib, "MiB")
	set("lzf.decode_mb", float64(tr.decodeBytes["lzf"]+tr.decodeBytes["lz4"])/mib, "MiB")
	set("codec.saved_ratio", ratio(float64(tr.saved), float64(tr.compressed)), "ratio")
	set("estimator.write_through_rate", ratio(float64(writeThrough), float64(sdRuns)), "ratio")
	set("datagen.mb", float64(origBytes)/mib, "MiB")
	set("sd.runs", float64(sdRuns), "count")
	set("sd.merged", float64(sdMerged), "count")
	set("ssd.flash_pages", float64(flash), "count")
	set("ssd.erases", float64(erases), "count")
	set("slot.allocs", float64(runs+reloc), "count")
	set("slot.frees", float64(tr.frees), "count")
	set("cache.hits", float64(hits), "count")
	set("cache.misses", float64(misses), "count")
	set("cache.hit_rate", ratio(float64(hits), float64(hits+misses)), "ratio")
	set("dedup.hit_rate", ratio(float64(dHits), float64(dHits+dMiss)), "ratio")
	set("dedup.bytes_saved", float64(dSaved), "B")
	set("maint.relocations", float64(reloc), "count")
	set("maint.aborted_ratio", ratio(float64(aborted), float64(reloc+aborted)), "ratio")
	set("maint.reclaimed_bytes", float64(reclaimed), "B")
	set("serve.submit_s", tc.spans.total("SubmitAt").Seconds(), "s")
	set("serve.await_s", tc.spans.total("await").Seconds(), "s")
	set("serve.stalls", float64(stalls), "count")
	set("pool.submitted", float64(submitted), "count")
	set("pool.stolen", float64(stolen), "count")
	set("pool.inline", float64(inline), "count")
	set("host.cpu_util", ratio(cpuA.Seconds(), wallA.Seconds()*float64(runtime.NumCPU())), "ratio")
	set("runtime.gc_cycles", float64(rt.gcCycles), "count")
	set("runtime.alloc_bytes_per_op", ratio(float64(rt.allocBytes), float64(done)), "B/op")
	set("runtime.gc_cpu_share", ratio(rt.gcCPU, rt.totalCPU), "ratio")
	set("trace_overhead", ratio(wallB.Seconds(), wallA.Seconds()), "ratio")
	set("error_rate", ratio(float64(failed), float64(attempted)), "ratio")
	qps := 0.0
	if cells[0].ops != nil {
		qps = maxQPS(ladderTable(cells, a))
	}
	set("max_qps_p99_1ms", qps, "qps")
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
