package codec

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"vbench/internal/syncx"
	"vbench/internal/video"
)

// encodeWave encodes src and returns the result, failing the test on
// error.
func encodeWave(t *testing.T, tools Tools, src *video.Sequence, cfg Config) *Result {
	t.Helper()
	res, err := (&Engine{Tools: tools}).Encode(src, cfg)
	if err != nil {
		t.Fatalf("encode (rows-parallel=%d slices=%d): %v", cfg.RowsParallel, cfg.Slices, err)
	}
	return res
}

// sameResult asserts that got matches want byte-for-byte: bitstream,
// every reconstruction plane, and the perf counters.
func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !bytes.Equal(want.Bitstream, got.Bitstream) {
		t.Errorf("%s: bitstream differs from serial (%d vs %d bytes)", label, len(got.Bitstream), len(want.Bitstream))
	}
	if len(want.Recon.Frames) != len(got.Recon.Frames) {
		t.Fatalf("%s: recon frame count %d, want %d", label, len(got.Recon.Frames), len(want.Recon.Frames))
	}
	for i := range want.Recon.Frames {
		w, g := want.Recon.Frames[i], got.Recon.Frames[i]
		if !bytes.Equal(w.Y, g.Y) || !bytes.Equal(w.Cb, g.Cb) || !bytes.Equal(w.Cr, g.Cr) {
			t.Errorf("%s: recon frame %d differs", label, i)
		}
	}
	if want.Counters != got.Counters {
		t.Errorf("%s: perf counters differ:\n got %+v\nwant %+v", label, got.Counters, want.Counters)
	}
}

// TestWavefrontDeterministicUnderParallelism pins the wavefront
// contract: rows-parallel is a scheduling knob only. The same sequence
// encoded at rows-parallel 1 (serial), 2, and 8 — across GOMAXPROCS 1
// and 4, single- and multi-slice, one-pass and two-pass — must produce
// byte-identical bitstreams, reconstructions, and perf counters. Run
// under -race this also exercises the row coordinator, the helper
// join, and the one-frame lookahead for data races.
func TestWavefrontDeterministicUnderParallelism(t *testing.T) {
	src := testSequence(t, 96, 96, 5, defaultParams())
	tools := BaselineTools(PresetMedium)

	configs := []Config{
		{RC: RCConstQP, QP: 26, KeyInterval: 3},
		{RC: RCConstQP, QP: 30, Slices: 3},
		{RC: RCTwoPass, BitrateBPS: 120e3},
	}
	for _, base := range configs {
		serialCfg := base
		serialCfg.RowsParallel = 1
		serial := encodeWave(t, tools, src, serialCfg)

		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			for _, rp := range []int{0, 2, 8} {
				cfg := base
				cfg.RowsParallel = rp
				label := fmt.Sprintf("rc=%v slices=%d rows-parallel=%d gomaxprocs=%d", base.RC, base.Slices, rp, procs)
				sameResult(t, label, serial, encodeWave(t, tools, src, cfg))
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// TestWavefrontRoundTrip decodes a wavefront-encoded bitstream and
// checks it reconstructs exactly — the decoder must not be able to
// tell which schedule produced the stream.
func TestWavefrontRoundTrip(t *testing.T) {
	src := testSequence(t, 64, 48, 4, defaultParams())
	tools := BaselineTools(PresetSlow)
	res := encodeWave(t, tools, src, Config{RC: RCConstQP, QP: 24, Slices: 2, RowsParallel: 8})
	dec, _, err := Decode(res.Bitstream)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec.Frames) != len(res.Recon.Frames) {
		t.Fatalf("decoded %d frames, want %d", len(dec.Frames), len(res.Recon.Frames))
	}
	for i := range dec.Frames {
		w, g := res.Recon.Frames[i], dec.Frames[i]
		if !bytes.Equal(w.Y, g.Y) || !bytes.Equal(w.Cb, g.Cb) || !bytes.Equal(w.Cr, g.Cr) {
			t.Errorf("decoded frame %d differs from encoder recon", i)
		}
	}
}

// TestWavefrontEngagesWorkers verifies the parallel path actually runs
// when asked: with dedicated lanes on a tall frame the occupancy
// histogram must record wavefront frames, and with rows-parallel=1 it
// must not.
func TestWavefrontEngagesWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	src := testSequence(t, 48, 160, 2, defaultParams())
	tools := BaselineTools(PresetUltraFast)
	eng := &Engine{Tools: tools}

	before := obsWaveOccupancy.Count()
	if _, err := eng.Encode(src, Config{RC: RCConstQP, QP: 30, RowsParallel: 1}); err != nil {
		t.Fatalf("serial encode: %v", err)
	}
	if n := obsWaveOccupancy.Count() - before; n != 0 {
		t.Fatalf("rows-parallel=1 recorded %d wavefront frames, want 0", n)
	}
	if _, err := eng.Encode(src, Config{RC: RCConstQP, QP: 30, RowsParallel: 4}); err != nil {
		t.Fatalf("wavefront encode: %v", err)
	}
	if n := obsWaveOccupancy.Count() - before; n != int64(len(src.Frames)) {
		t.Fatalf("rows-parallel=4 recorded %d wavefront frames, want %d", n, len(src.Frames))
	}
}

// TestSearchTelemetrySameUnderWavefront checks that wavefront lanes
// report their search telemetry: the same decisions make the same SAD
// early exits and skipped revisits whichever lane runs them, so the
// codec.kern.* counters must advance by the same amount at
// rows-parallel 1 and 4.
func TestSearchTelemetrySameUnderWavefront(t *testing.T) {
	src := testSequence(t, 48, 160, 3, defaultParams())
	tools := BaselineTools(PresetMedium)
	var exits, revisits [2]int64
	for i, rp := range []int{1, 4} {
		e0, r0 := obsKernSADEarlyExits.Value(), obsKernRevisitsSkipped.Value()
		encodeWave(t, tools, src, Config{RC: RCConstQP, QP: 28, RowsParallel: rp})
		exits[i], revisits[i] = obsKernSADEarlyExits.Value()-e0, obsKernRevisitsSkipped.Value()-r0
	}
	if exits[0] != exits[1] || revisits[0] != revisits[1] {
		t.Fatalf("serial counted %d early exits and %d revisits, rows-parallel 4 counted %d and %d",
			exits[0], revisits[0], exits[1], revisits[1])
	}
	if revisits[0] == 0 {
		t.Fatal("no skipped revisits counted")
	}
}

// TestEncodeFinishesOnSaturatedGate pins the rule every fan-out in
// Encode relies on: the encoding goroutine never waits on the CPU
// gate. With every slot of the gate held elsewhere, no slice helper,
// wavefront lane helper, or lookahead helper can ever start, yet a
// multi-slice, gate-shared, two-pass encode must still finish on the
// caller alone, match the serial result byte for byte, and leave no
// goroutine behind.
func TestEncodeFinishesOnSaturatedGate(t *testing.T) {
	src := testSequence(t, 96, 128, 4, defaultParams())
	tools := BaselineTools(PresetMedium)
	base := Config{RC: RCTwoPass, BitrateBPS: 120e3, Slices: 4}
	serialCfg := base
	serialCfg.RowsParallel = 1
	serial := encodeWave(t, tools, src, serialCfg)

	saved := cpuGate
	defer func() { cpuGate = saved }()
	// Capacity 1 leaves the wavefront off (one lane per slice); at
	// capacity 2 each two-row slice runs two lanes, one a helper.
	for _, capacity := range []int{1, 2} {
		cpuGate = syncx.NewCPUGate(capacity)
		for i := 0; i < capacity; i++ {
			cpuGate.Acquire()
		}
		before := runtime.NumGoroutine()
		done := make(chan *Result, 1)
		go func() {
			cfg := base
			cfg.RowsParallel = 0
			res, err := (&Engine{Tools: tools}).Encode(src, cfg)
			if err != nil {
				t.Errorf("capacity %d: %v", capacity, err)
			}
			done <- res
		}()
		var got *Result
		select {
		case got = <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("capacity %d: encode blocked on a saturated gate", capacity)
		}
		if got == nil {
			continue
		}
		sameResult(t, fmt.Sprintf("saturated gate, capacity %d", capacity), serial, got)
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("capacity %d: %d goroutines left behind", capacity, n-before)
		}
	}
}
