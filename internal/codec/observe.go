package codec

import (
	"time"

	"vbench/internal/codec/kern"
	"vbench/internal/perf"
	"vbench/internal/telemetry"
	"vbench/internal/video"
)

// Telemetry handles for the encoder hot path. The counters are plain
// atomics updated once per encode (never per macroblock), so they are
// effectively free; the per-stage clocks behind stageTimes only run
// when telemetry.StagesEnabled() — with telemetry off the encoder
// performs no time.Now calls beyond the seed behaviour.
var (
	obsEncodes     = telemetry.GetCounter("codec.encodes")
	obsFrames      = telemetry.GetCounter("codec.frames")
	obsMacroblocks = telemetry.GetCounter("codec.macroblocks")
	obsBitsOut     = telemetry.GetCounter("codec.bits_output")
	obsMotionNS    = telemetry.GetCounter("codec.stage.motion_ns")
	obsTransformNS = telemetry.GetCounter("codec.stage.transform_ns")
	obsEntropyNS   = telemetry.GetCounter("codec.stage.entropy_ns")
	obsGateWaitNS  = telemetry.GetCounter("codec.stage.slice_gate_wait_ns")
	obsGateWait    = telemetry.GetHistogram("codec.slice_gate_wait_seconds",
		1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1)

	// Scratch-memory health (see arena.go): candidate structs that had
	// to be heap-allocated because the free list was empty, and level
	// slices that fell back to the heap because an arena filled up. In
	// steady state both should stay near the number of slice lanes;
	// growth means the recycling regressed.
	obsCandAllocs     = telemetry.GetCounter("codec.arena.cand_allocs")
	obsLevelOverflows = telemetry.GetCounter("codec.arena.level_overflows")

	// Kernel-layer health (see internal/codec/kern): SAD evaluations the
	// threshold kernels cut short, and motion-search candidates not
	// costed because the same search had costed that vector already.
	// Deterministic for a given input — neither changes coding
	// decisions or perf counter values, only wall-clock work — so a
	// fixed workload always reports the same counts.
	obsKernSADEarlyExits   = telemetry.GetCounter("codec.kern.sad_early_exits")
	obsKernRevisitsSkipped = telemetry.GetCounter("codec.kern.search_revisits_skipped")

	// Wavefront health (see wavefront.go). Row stalls count episodes
	// where a row worker had to wait for the row above to advance;
	// occupancy records how many workers actually encoded rows of each
	// wavefront frame. Both depend on scheduling, so they are telemetry
	// only and never feed perf.Counters (which stay byte-deterministic).
	obsWaveRowStalls = telemetry.GetCounter("codec.wave.row_stalls")
	obsWaveOccupancy = telemetry.GetHistogram("codec.wave.occupancy",
		1, 2, 4, 8, 16, 32)
)

// The frame pool lives in internal/video (both encoder and decoder
// draw reconstruction frames from it); its traffic is surfaced here as
// gauges so the reuse-hit rate shows up in metrics snapshots alongside
// the codec counters.
func init() {
	telemetry.Default.GaugeFunc("codec.arena.frame_gets", func() float64 {
		gets, _, _ := video.FramePoolStats()
		return float64(gets)
	})
	telemetry.Default.GaugeFunc("codec.arena.frame_hits", func() float64 {
		_, hits, _ := video.FramePoolStats()
		return float64(hits)
	})
	telemetry.Default.GaugeFunc("codec.arena.frame_puts", func() float64 {
		_, _, puts := video.FramePoolStats()
		return float64(puts)
	})
	// Coefficients too large for the reciprocal quantizer's exact range
	// (|c|·8 ≥ 2²⁶) fall back to a scalar divide inside kern. Real
	// residuals never reach that range, so a nonzero rate signals an
	// upstream scaling bug.
	telemetry.Default.GaugeFunc("codec.kern.quant_div_fallbacks", func() float64 {
		return float64(kern.QuantDivFallbacks())
	})
}

// stageTimes accumulates one slice encoder's time per pipeline stage.
// Each slice owns its instance (merged in slice order after the frame
// joins), so accumulation is unsynchronized. Stage attribution is
// sampled at candidate granularity — tight enough to rank the stages,
// cheap enough to stay under the telemetry overhead budget.
type stageTimes struct {
	motion    time.Duration // motion search (SAD/SATD block matching)
	transform time.Duration // transform + quantization + reconstruction
	entropy   time.Duration // symbol writing and arithmetic-coder flush
	gateWait  time.Duration // waiting on the process-wide slice gate
}

// add merges o into t.
func (t *stageTimes) add(o *stageTimes) {
	t.motion += o.motion
	t.transform += o.transform
	t.entropy += o.entropy
	t.gateWait += o.gateWait
}

// sinceTransform charges the time since t0 to the transform stage; it
// is shaped for use as `defer tm.sinceTransform(time.Now())` inside a
// stages-enabled guard.
func (t *stageTimes) sinceTransform(t0 time.Time) { t.transform += time.Since(t0) }

// sinceEntropy charges the time since t0 to the entropy stage.
func (t *stageTimes) sinceEntropy(t0 time.Time) { t.entropy += time.Since(t0) }

// publish flushes an encode's accumulated stage times and counters to
// the process-wide registry and annotates the encode span.
func (t *stageTimes) publish(sp *telemetry.Span, c *perf.Counters) {
	obsMotionNS.AddDuration(t.motion)
	obsTransformNS.AddDuration(t.transform)
	obsEntropyNS.AddDuration(t.entropy)
	obsGateWaitNS.AddDuration(t.gateWait)
	if sp != nil {
		sp.Arg("motion_ms", roundMS(t.motion))
		sp.Arg("transform_ms", roundMS(t.transform))
		sp.Arg("entropy_ms", roundMS(t.entropy))
		sp.Arg("gate_wait_ms", roundMS(t.gateWait))
		sp.Arg("mb_total", c.MBTotal)
		sp.Arg("bits_output", c.BitsOutput)
		for _, k := range perf.Kernels() {
			sp.Arg("ops_"+k.String(), c.Ops[k])
		}
	}
}

// roundMS renders a duration as milliseconds with microsecond
// precision for span args.
func roundMS(d time.Duration) float64 {
	return float64(d.Round(time.Microsecond)) / float64(time.Millisecond)
}
