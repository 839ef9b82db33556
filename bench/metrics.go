package main

import (
	"syscall"
)

// metricDef names one reported metric. The two lists below must match
// BENCHMARK.json one for one (bench_test.go checks).
type metricDef struct {
	name, unit string
	value      func(r *runResult) float64
}

// endToEnd are the metrics of an untraced run: what a user of the
// system sees. The four timings are wall-clock times divided by the
// run's host factor, that is, expressed at the reference host's speed.
var endToEnd = []metricDef{
	{"setup_s", "s", func(r *runResult) float64 { return median(r.setups) / r.hostFactor() }},
	{"main_p50_ms", "ms", func(r *runResult) float64 { return median(r.mainMS) / r.hostFactor() }},
	{"aux_p50_ms", "ms", func(r *runResult) float64 { return median(r.auxMS) / r.hostFactor() }},
	{"mpix_per_s", "Mpixel/s", func(r *runResult) float64 {
		wall := make([]float64, len(r.mainMS))
		for i := range wall {
			wall[i] = r.mainMS[i] + r.auxMS[i]
		}
		return ratio(float64(r.pixPerCycle)/1e6, trimmedMean(wall)/1e3) * r.hostFactor()
	}},
	{"bitrate_bpps", "bit/pixel/s", func(r *runResult) float64 { return r.bitrate }},
	{"psnr_db", "dB", func(r *runResult) float64 { return r.psnr }},
}

// Helpers over a traced run. Every observation — explicit ones and
// the spans' durations, filed under the span's name, and self times,
// under "self:"+name — is looked up the same way: the workload's
// samples, or the probe's when the workload made none.
func obsMedian(name string) func(r *runResult) float64 {
	return func(r *runResult) float64 { return median(r.obs.get(name)) }
}

func obsRatio(num, den string) func(r *runResult) float64 {
	return func(r *runResult) float64 { return ratio(sum(r.obs.get(num)), sum(r.obs.get(den))) }
}

func perCycle(total func(r *runResult) float64) func(r *runResult) float64 {
	return func(r *runResult) float64 { return ratio(total(r), float64(len(r.mainMS))) }
}

// perLayer are the metrics of a traced run, grouped by layer (module
// name). bench/README.md states which end-to-end metric each should
// move, and on which workload.
var perLayer = []metricDef{
	// The benchmark itself and the Go runtime under it.
	{"bench.cycles", "count", func(r *runResult) float64 { return float64(len(r.mainMS)) }},
	{"bench.main_tail_ms", "ms", func(r *runResult) float64 { v, _ := tail(r.mainMS); return v }},
	{"bench.main_wall_ms", "ms", func(r *runResult) float64 { return median(r.mainMS) }},
	{"bench.spin_ms", "ms", func(r *runResult) float64 { return median(r.spinMS) }},
	{"bench.host_factor", "ratio", func(r *runResult) float64 { return r.hostFactor() }},
	{"bench.trace_overhead_pct", "%", func(r *runResult) float64 {
		plain := median(r.plainM)
		return 100 * ratio(median(r.tracedMain)-plain, plain)
	}},
	{"bench.trace_coverage_pct", "%", func(r *runResult) float64 { return 100 * median(r.ts.coverage) }},
	{"go.mallocs_per_cycle", "count", perCycle(func(r *runResult) float64 { return float64(r.mem.mallocs) })},
	{"go.alloc_kb_per_cycle", "KB", perCycle(func(r *runResult) float64 { return float64(r.mem.allocBytes) / 1024 })},
	{"go.gc_pause_ms_per_cycle", "ms", perCycle(func(r *runResult) float64 { return ms(r.mem.gcPause) })},
	{"go.rss_peak_mb", "MB", func(r *runResult) float64 { return r.mem.rssPeakMB }},

	// internal/codec/kern: direct calls on fixed 16×16 / 8×8 buffers.
	{"kern.sad16_ns", "ns", obsMedian("kern.sad16_ns")},
	{"kern.sad16_thresh_ns", "ns", obsMedian("kern.sad16_thresh_ns")},
	{"kern.satd16_ns", "ns", obsMedian("kern.satd16_ns")},
	{"kern.fdct8_ns", "ns", obsMedian("kern.fdct8_ns")},
	{"kern.idct8_ns", "ns", obsMedian("kern.idct8_ns")},
	{"kern.quant8_ns", "ns", obsMedian("kern.quant8_ns")},
	{"kern.bilinear16_ns", "ns", obsMedian("kern.bilinear16_ns")},
	{"kern.bilinear_sad16_ns", "ns", obsMedian("kern.bilinear_sad16_ns")},

	// internal/codec: Engine.Encode and Decode calls.
	{"codec.encode_ms", "ms", obsMedian("codec.encode")},
	{"codec.encode_calls", "count", func(r *runResult) float64 {
		return ratio(float64(r.ts.inWindow["codec.encode"]), float64(len(r.tracedMain)))
	}},
	{"codec.decode_ms", "ms", obsMedian("codec.decode")},
	{"codec.mb_per_ms", "MB/ms", obsRatio("codec.mb", "codec.encode_busy_ms")},
	{"codec.sad_ops_per_mb", "count", obsRatio("codec.sad_ops", "codec.mb")},
	{"codec.skip_ratio", "ratio", obsRatio("codec.mb_skip", "codec.mb")},
	{"codec.wave_speedup", "ratio", func(r *runResult) float64 {
		return ratio(median(r.obs.get("codec.probe_serial_ms")), median(r.obs.get("codec.probe_wave_ms")))
	}},
	{"codec.slice_speedup", "ratio", func(r *runResult) float64 {
		return ratio(median(r.obs.get("codec.probe_serial_ms")), median(r.obs.get("codec.probe_slice_ms")))
	}},

	// internal/corpus + internal/video, internal/metrics.
	{"video.generate_ms", "ms", obsMedian("video.generate")},
	{"metrics.psnr_ms", "ms", obsMedian("metrics.psnr")},

	// internal/harness + internal/scoring: cold-pass calls, pool, and
	// what the warm pass costs beyond its cells.
	{"harness.cell_ms", "ms", obsMedian("harness.cell")},
	{"harness.reference_ms", "ms", obsMedian("harness.reference")},
	{"harness.sequence_ms", "ms", obsMedian("harness.sequence")},
	{"harness.encodes_per_pass", "count", obsMedian("harness.encodes_per_pass")},
	{"harness.pool_busy_ratio", "ratio", obsMedian("harness.pool_busy_ratio")},
	{"harness.warm_self_ms", "ms", obsMedian("self:bench.grid.warm")},

	// internal/cas: direct Store calls on one real entry, and the
	// traffic of the workload's own store.
	{"cas.key_us", "us", obsMedian("cas.key_us")},
	{"cas.get_mem_us", "us", obsMedian("cas.get_mem_us")},
	{"cas.get_disk_us", "us", obsMedian("cas.get_disk_us")},
	{"cas.put_us", "us", obsMedian("cas.put_us")},
	{"cas.hit_ratio", "ratio", obsRatio("cas.hits", "cas.lookups")},
	{"cas.disk_kb_per_pass", "KB", obsMedian("cas.disk_kb_per_pass")},

	// internal/fleet: the loopback batch as the queue recorded it, and
	// direct Queue calls on a scratch 1 000-job queue.
	{"fleet.submit_rpc_us", "us", obsMedian("fleet.submit_rpc_us")},
	{"fleet.first_lease_ms", "ms", obsMedian("fleet.first_lease_ms")},
	{"fleet.queue_wait_ms", "ms", obsMedian("fleet.queue_wait_ms")},
	{"fleet.exec_ms", "ms", obsMedian("fleet.exec_ms")},
	{"fleet.worker_busy_ratio", "ratio", obsMedian("fleet.worker_busy_ratio")},
	{"fleet.leases_per_job", "ratio", obsMedian("fleet.leases_per_job")},
	{"fleet.dedup_hits", "count", obsMedian("fleet.dedup_hits")},
	{"fleet.queue_submit_us", "us", obsMedian("fleet.queue_submit_us")},
	{"fleet.queue_lease_us", "us", obsMedian("fleet.queue_lease_us")},
	{"fleet.queue_complete_us", "us", obsMedian("fleet.queue_complete_us")},
	{"fleet.snapshot_ms", "ms", obsMedian("fleet.snapshot_ms")},
}

// rssPeakMB is the process's peak resident set, from getrusage (KiB on
// Linux).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
