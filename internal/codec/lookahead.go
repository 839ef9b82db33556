package codec

import (
	"sync"

	"vbench/internal/perf"
	"vbench/internal/video"
)

// One-frame lookahead: the source-side half of per-frame encode work —
// padding, denoise, scene-cut classification, and adaptive-
// quantization activity analysis — depends only on the source frames,
// never on reconstructions or rate-control state. While frame i
// encodes, one helper goroutine analyzes frame i+1; in two-pass mode
// frame 0's analysis starts before the measurement pass and overlaps
// it.
//
// Determinism: frame i+1's analysis starts only after frame i's has
// been taken, so the scene-cut EMA chain runs strictly in frame order,
// and each frame's perf.Counters ride in its frameAnalysis and merge
// at consumption — bitstream, reconstruction, and counters are
// byte-identical to the serial path whichever goroutine analyzed.
//
// Gate discipline (see syncx.CPUGate): a gated helper analyzes only
// with a slot won via AcquireOrQuit, and holds it for one frame. The
// consumer, which represents its caller's already-granted execution
// context, never touches the gate: wait closes quit, and if the helper
// never won a slot the consumer analyzes the frame itself.

// frameAnalysis is everything the encode loop needs from the source
// side of one frame.
type frameAnalysis struct {
	src        *video.Frame // padded (and possibly denoised) source
	ftype      int
	varBits    []int
	avgVarBits int
	c          perf.Counters // analysis work, merged at consumption
}

// analyzer runs the source-side analysis of one encode's frames, in
// frame order.
type analyzer struct {
	eng    *Engine
	cfg    Config
	frames []*video.Frame
	mbW    int
	mbH    int
	aq     bool

	// Scene-cut state: each frame's mean absolute difference against
	// the previous source is compared to an exponential moving average
	// of recent differences; a sudden jump marks a cut. Only one
	// analyze call runs at a time.
	prevSrc *video.Frame
	madEMA  float64
}

// analyze runs the source-side work for frame i. Calls must come in
// frame order, one at a time.
func (a *analyzer) analyze(i int) frameAnalysis {
	var fa frameAnalysis
	srcP := padFrame(a.frames[i])
	if a.eng.Tools.Denoise > 0 {
		srcP = denoiseFrame(srcP, a.eng.Tools.Denoise, &fa.c)
	}
	fa.src = srcP
	fa.ftype = frameP
	switch {
	case i == 0, a.cfg.KeyInterval > 0 && i%a.cfg.KeyInterval == 0:
		fa.ftype = frameI
	case a.eng.Tools.SceneCut:
		mad := frameMAD(srcP, a.prevSrc, &fa.c)
		if a.madEMA >= 0 && mad > 3*a.madEMA+6 {
			fa.ftype = frameI
		} else {
			if a.madEMA < 0 {
				a.madEMA = mad
			} else {
				a.madEMA = 0.7*a.madEMA + 0.3*mad
			}
		}
	}
	if a.aq {
		fa.varBits, fa.avgVarBits = computeActivity(srcP, a.mbW, a.mbH, &fa.c)
	}
	a.prevSrc = srcP
	return fa
}

// lookahead overlaps one frame's analysis with the previous frame's
// encode. At most one helper is in flight.
type lookahead struct {
	a    analyzer
	quit chan struct{}  // closed by stop; nil when no helper is in flight
	wg   sync.WaitGroup // the helper in flight
	fa   *frameAnalysis // the helper's result; nil if it never won a slot
}

// start analyzes frame i on a helper goroutine, which first needs a
// gate slot when gated. Frames past the end start nothing.
func (la *lookahead) start(i int, gated bool) {
	if i >= len(la.a.frames) {
		return
	}
	quit := make(chan struct{})
	la.quit = quit
	la.wg.Add(1)
	go func() {
		defer la.wg.Done()
		if gated {
			if !cpuGate.AcquireOrQuit(quit) {
				return
			}
			defer cpuGate.Release()
		}
		fa := la.a.analyze(i)
		la.fa = &fa
	}()
}

// wait returns frame i, the frame last started (or any frame when none
// is in flight): the helper's analysis if it ran, otherwise the frame
// analyzed here.
func (la *lookahead) wait(i int) frameAnalysis {
	la.stop()
	if fa := la.fa; fa != nil {
		la.fa = nil
		return *fa
	}
	return la.a.analyze(i)
}

// stop ends the helper in flight, if any: one still queued on the gate
// leaves without analyzing, one analyzing finishes first.
func (la *lookahead) stop() {
	if la.quit != nil {
		close(la.quit)
		la.quit = nil
		la.wg.Wait()
	}
}
