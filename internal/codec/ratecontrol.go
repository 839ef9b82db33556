package codec

import (
	"fmt"
	"math"
)

// RCMode selects the rate-control strategy, mirroring the reference
// transcode operations of the paper: constant quality for Upload,
// single-pass bitrate for Live, and two-pass bitrate for VOD/Popular.
type RCMode int

// Rate-control modes.
const (
	// RCConstQP holds the quantizer fixed (constant-quality / CRF
	// analogue: the encoder uses as many bits as the content needs).
	RCConstQP RCMode = iota
	// RCBitrate is single-pass average-bitrate control with a
	// per-frame feedback loop (low-latency: no lookahead).
	RCBitrate
	// RCTwoPass runs a fast measurement pass, allocates the bit budget
	// across frames by measured complexity, then encodes.
	RCTwoPass
)

// String names the mode.
func (m RCMode) String() string {
	switch m {
	case RCConstQP:
		return "crf"
	case RCBitrate:
		return "abr"
	case RCTwoPass:
		return "2pass"
	}
	return fmt.Sprintf("rc(%d)", int(m))
}

// Config holds the per-transcode parameters of an encode.
type Config struct {
	// RC selects the rate-control mode.
	RC RCMode
	// QP is the constant quantizer for RCConstQP (0..51; lower is
	// higher quality; ~18 is visually lossless, matching CRF 18 in
	// the paper's entropy definition).
	QP int
	// BitrateBPS is the target bitrate in bits per second for
	// RCBitrate and RCTwoPass.
	BitrateBPS float64
	// KeyInterval inserts an I-frame every KeyInterval frames;
	// 0 means only the first frame is intra.
	KeyInterval int
	// Slices splits each frame into this many independently coded
	// horizontal macroblock bands (0 or 1 = one slice). Slices trade
	// a little compression (prediction cannot cross the boundary) for
	// parallel encoding — the mechanism multi-core encoders and
	// hardware pipelines use.
	Slices int
	// RowsParallel controls wavefront parallelism inside each slice:
	// macroblock rows encode concurrently once the row above is two
	// macroblocks ahead (see wavefront.go). 0 = auto: row workers
	// share the process CPU gate (syncx.CPU) and engage only when
	// spare capacity exists; 1 = strictly serial rows (wavefront
	// off); 2..64 = exactly that many dedicated row lanes regardless
	// of gate capacity, for tests and benchmarks that must exercise
	// the concurrent path on any host. The same setting governs the
	// one-frame lookahead (see lookahead.go): off at 1, a gate-shared
	// helper at 0, a dedicated one above 1. Every setting produces the
	// identical bitstream — only scheduling changes.
	RowsParallel int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.RC {
	case RCConstQP:
		if c.QP < 0 || c.QP > 51 {
			return fmt.Errorf("codec: QP %d out of [0,51]", c.QP)
		}
	case RCBitrate, RCTwoPass:
		if c.BitrateBPS <= 0 {
			return fmt.Errorf("codec: non-positive target bitrate %v", c.BitrateBPS)
		}
	default:
		return fmt.Errorf("codec: unknown rate-control mode %d", int(c.RC))
	}
	if c.KeyInterval < 0 {
		return fmt.Errorf("codec: negative key interval %d", c.KeyInterval)
	}
	if c.Slices < 0 || c.Slices > 64 {
		return fmt.Errorf("codec: slice count %d out of [0,64]", c.Slices)
	}
	if c.RowsParallel < 0 || c.RowsParallel > 64 {
		return fmt.Errorf("codec: rows-parallel %d out of [0,64]", c.RowsParallel)
	}
	return nil
}

// rateControl drives per-frame QP selection.
type rateControl struct {
	mode            RCMode
	qp              int // current P-frame QP
	targetFrameBits float64
	produced        float64
	planned         float64
	// Two-pass state.
	budgets []float64
	passQP  []int
	// feedback accumulators
	adjust int
}

// newRateControl initializes the controller. For two-pass mode,
// firstPassBits carries the per-frame complexity measured by the
// first pass at firstPassQP.
func newRateControl(cfg Config, pixelsPerFrame int, fps float64, frames int, firstPassBits []int64, firstPassQP int) *rateControl {
	rc := &rateControl{mode: cfg.RC}
	switch cfg.RC {
	case RCConstQP:
		rc.qp = cfg.QP
	case RCBitrate:
		rc.targetFrameBits = cfg.BitrateBPS / fps
		rc.qp = initialQP(rc.targetFrameBits, pixelsPerFrame)
	case RCTwoPass:
		rc.targetFrameBits = cfg.BitrateBPS / fps
		total := rc.targetFrameBits * float64(frames)
		rc.budgets = make([]float64, frames)
		rc.passQP = make([]int, frames)
		var sum float64
		pow := make([]float64, frames)
		for i, b := range firstPassBits {
			pow[i] = math.Pow(float64(b)+1, 0.7)
			sum += pow[i]
		}
		for i := range rc.budgets {
			rc.budgets[i] = total * pow[i] / sum
			// Rate model: bits halve roughly every +7 QP.
			delta := 7 * math.Log2(float64(firstPassBits[i]+1)/rc.budgets[i])
			rc.passQP[i] = clampQP(firstPassQP + int(math.Round(delta)))
		}
	}
	return rc
}

// initialQP estimates a starting quantizer from the target bits per
// pixel using the codec's empirical rate curve.
func initialQP(frameBits float64, pixelsPerFrame int) int {
	bpp := frameBits / float64(pixelsPerFrame)
	if bpp <= 0 {
		return 40
	}
	return clampQP(int(math.Round(16 - 6*math.Log2(bpp))))
}

func clampQP(qp int) int {
	if qp < 2 {
		return 2
	}
	if qp > 51 {
		return 51
	}
	return qp
}

// frameQP returns the quantizer for frame i of the given type.
// I frames are quantized slightly finer, as every encoder does,
// because their quality propagates through the GOP.
func (rc *rateControl) frameQP(i int, ftype int) int {
	var qp int
	switch rc.mode {
	case RCConstQP, RCBitrate:
		qp = rc.qp
	case RCTwoPass:
		qp = rc.passQP[i] + rc.adjust
	}
	if ftype == frameI {
		qp -= 2
	}
	return clampQP(qp)
}

// update feeds back the actual size of frame i.
func (rc *rateControl) update(i int, bits int64) {
	switch rc.mode {
	case RCConstQP:
		return
	case RCBitrate:
		rc.produced += float64(bits)
		rc.planned += rc.targetFrameBits
	case RCTwoPass:
		rc.produced += float64(bits)
		rc.planned += rc.budgets[i]
	}
	ratio := rc.produced / rc.planned
	step := 0
	switch {
	case ratio > 1.5:
		step = 2
	case ratio > 1.10:
		step = 1
	case ratio < 0.65:
		step = -2
	case ratio < 0.90:
		step = -1
	}
	if rc.mode == RCBitrate {
		rc.qp = clampQP(rc.qp + step)
	} else {
		rc.adjust += step
		if rc.adjust > 8 {
			rc.adjust = 8
		}
		if rc.adjust < -8 {
			rc.adjust = -8
		}
	}
}
