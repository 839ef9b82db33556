package harness

import (
	"math"
	"testing"

	"vbench/internal/corpus"
	"vbench/internal/scoring"
)

// TestBreakEvenArithmetic pins the economics study's closed forms on
// hand-computed inputs, no encodes: Popular pays after
// popCPU·$cpu / ((vodBytes−popBytes)·$egress) views, and the VOD copy
// is cheaper to evict past vodCPU·$cpu / (vodBytes·$storage) seconds
// between requests.
func TestBreakEvenArithmetic(t *testing.T) {
	unit := prices{cpuPerSecond: 1, storagePerByteSecond: 0.01, egressPerByte: 0.1}
	double := unit
	double.cpuPerSecond *= 2
	vod := rendition{bytes: 100, cpuSeconds: 2, psnr: 40}
	cases := []struct {
		name           string
		p              prices
		pop            rendition
		views          float64
		ok             bool
		evictAfterSecs float64
	}{
		// 8·1 / (40·0.1) = 2 views; 2·1 / (100·0.01) = 2 s.
		{"valid", unit, rendition{bytes: 60, cpuSeconds: 8, psnr: 40.5}, 2, true, 2},
		{"cpu price doubled", double, rendition{bytes: 60, cpuSeconds: 8, psnr: 40.5}, 4, true, 4},
		{"lower PSNR", unit, rendition{bytes: 60, cpuSeconds: 8, psnr: 39.9}, 0, false, 2},
		{"zero byte saving", unit, rendition{bytes: 100, cpuSeconds: 8, psnr: 41}, 0, false, 2},
		{"larger", unit, rendition{bytes: 120, cpuSeconds: 8, psnr: 41}, 0, false, 2},
	}
	for _, tc := range cases {
		views, ok, evictAfter := tc.p.breakEven(vod, tc.pop)
		if ok != tc.ok || math.Abs(views-tc.views) > 1e-12 || math.Abs(evictAfter-tc.evictAfterSecs) > 1e-12 {
			t.Errorf("%s: breakEven = (%v, %v, %v), want (%v, %v, %v)",
				tc.name, views, ok, evictAfter, tc.views, tc.ok, tc.evictAfterSecs)
		}
	}

	// Normalisation to native size: 0.1 bit/pixel/s over 1920×1080 is
	// 25,920 bytes per second, and 62.208 Mpixel/s is one CPU-second
	// per second of 30 fps video.
	c := corpus.Clip{Width: 1920, Height: 1080, FrameRate: 30}
	got := nativeRendition(c, scoring.Measurement{BitratePPS: 0.1, SpeedMPS: 62.208, PSNR: 40})
	if math.Abs(got.bytes-25920) > 1e-9 || math.Abs(got.cpuSeconds-1) > 1e-12 || got.psnr != 40 {
		t.Errorf("nativeRendition = %+v, want {25920 1 40}", got)
	}
}
