package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"vbench/internal/codec/kern"
	"vbench/internal/codec/motion"
	"vbench/internal/codec/predict"
	"vbench/internal/codec/transform"
	"vbench/internal/perf"
	"vbench/internal/syncx"
	"vbench/internal/telemetry"
	"vbench/internal/video"
)

// cpuGate bounds how many encode goroutines run at once across ALL
// concurrent Encode calls in the process — and, because it is the
// same gate the harness worker pool draws cell slots from
// (syncx.CPU), across every layer of nesting at once: N pool workers
// × K slices × L wavefront lanes can never put more than GOMAXPROCS
// goroutines to work. The encoding goroutine never blocks on the
// gate: it does the work itself (it already represents a granted
// execution context — the pool worker's slot, in a harness run) and
// extra helpers — slice and lane helpers through helperJoin, the
// lookahead's analysis helper — join only if they win a slot via
// AcquireOrQuit. No holder ever waits on the gate for work a fellow
// waiter must finish, so the shared budget cannot deadlock at any
// capacity. Determinism is unaffected because payloads and counters
// are still merged in slice and row order.
var cpuGate = syncx.CPU

// helperJoin runs work on the calling goroutine and on n helper
// goroutines, and returns once all of them are done. It is the one
// fan-out shape of the encoder: slices and wavefront lanes both use
// it. work must pull its tasks from a shared cursor, so that any one
// goroutine can finish all of them. The caller never touches the gate
// — it represents an execution context its own caller already granted
// — while a gated helper works only with a slot won through
// AcquireOrQuit. quit closes as soon as the caller's own work returns:
// a helper still queued on the gate then leaves without working, and
// the join waits only for helpers that started. With tm set, each
// helper's gate wait is added to tm.gateWait.
func helperJoin(n int, gated bool, tm *stageTimes, work func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	var waits []time.Duration
	if gated && tm != nil {
		waits = make([]time.Duration, n)
	}
	wg.Add(n)
	for h := 0; h < n; h++ {
		go func(h int) {
			defer wg.Done()
			if gated {
				var t0 time.Time
				if tm != nil {
					t0 = time.Now()
				}
				if !cpuGate.AcquireOrQuit(quit) {
					return
				}
				defer cpuGate.Release()
				if tm != nil {
					waits[h] = time.Since(t0)
				}
			}
			work()
		}(h)
	}
	work()
	close(quit)
	wg.Wait()
	for _, w := range waits {
		if w > 0 {
			tm.gateWait += w
			obsGateWait.ObserveDuration(w)
		}
	}
}

// intraAvailClipped is predict.Available restricted to a slice:
// prediction from above must not cross the slice's first row
// (planeTop, in the plane's own coordinates).
func intraAvailClipped(m predict.Mode, bx, by, size int, plane motion.Plane, planeTop int) bool {
	if !predict.Available(m, bx, by, size, plane) {
		return false
	}
	if by <= planeTop {
		switch m {
		case predict.ModeVertical, predict.ModePlane:
			return false
		}
	}
	return true
}

// lambdaMode is the rate-distortion trade-off (SSE per bit) per QP,
// following the H.264 convention λ = 0.85·2^((QP−12)/3).
var lambdaMode [52]float64

// lambdaSATDQ4 is the SAD/SATD-domain lambda (√λmode), in Q4 fixed
// point for the integer motion search.
var lambdaSATDQ4 [52]int64

func init() {
	for qp := range lambdaMode {
		lm := 0.85 * math.Pow(2, float64(qp-12)/3.0)
		lambdaMode[qp] = lm
		lambdaSATDQ4[qp] = int64(math.Round(16 * math.Sqrt(lm)))
	}
}

// firstPassQP is the fixed quantizer of the two-pass measurement pass.
const firstPassQP = 32

// Result carries everything an encode produces.
type Result struct {
	// Bitstream is the complete compressed stream (decodable with
	// Decode).
	Bitstream []byte
	// Recon is the encoder-side reconstruction — bit-identical to
	// what Decode produces — used for quality measurement.
	Recon *video.Sequence
	// PerFrameBits records the compressed size of each frame in bits
	// (including frame headers).
	PerFrameBits []int64
	// FrameTypes records frameI/frameP per frame.
	FrameTypes []int
	// Counters is the abstract work performed.
	Counters perf.Counters
	// Seconds is the modeled encode time under the engine's cost
	// model (0 if the engine has no model).
	Seconds float64
}

// IsIntra reports whether frame i was coded as a key frame.
func (r *Result) IsIntra(i int) bool { return r.FrameTypes[i] == frameI }

// Engine is a configured encoder: a tool set plus a machine cost
// model.
type Engine struct {
	Tools Tools
	Model *perf.CostModel
}

// Encode compresses src under cfg. The returned Result contains the
// bitstream, the reconstruction, and the work accounting.
//
// When telemetry is active the encode records a span with per-frame
// children and per-stage timing/op annotations; the instrumentation
// only observes the encode, so the bitstream and reconstruction are
// byte-identical with telemetry on or off.
func (e *Engine) Encode(src *video.Sequence, cfg Config) (*Result, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	if err := e.Tools.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(src.Frames) > 65535 {
		return nil, fmt.Errorf("codec: sequence too long (%d frames)", len(src.Frames))
	}

	sp := telemetry.StartSpan("encode " + e.Tools.Name)
	defer sp.End()
	stagesOn := telemetry.StagesEnabled()
	var st stageTimes

	res := &Result{}

	hdr := &seqHeader{
		width:         src.Width(),
		height:        src.Height(),
		fpsMilli:      uint32(src.FrameRate*1000 + 0.5),
		frames:        len(src.Frames),
		entropy:       e.Tools.Entropy,
		tx8Allowed:    e.Tools.Transform8x8,
		deblock:       e.Tools.Deblock,
		adaptiveQuant: e.Tools.AdaptiveQuant,
		richContexts:  e.Tools.RichContexts && e.Tools.Entropy == EntropyArith,
		sharpInterp:   e.Tools.SharpInterp,
		intra4Allowed: e.Tools.Intra4x4,
		refs:          e.Tools.MaxRefs,
	}
	mbW := hdr.paddedWidth() / MBSize
	mbH := hdr.paddedHeight() / MBSize
	nSlices := cfg.Slices
	if nSlices < 1 {
		nSlices = 1
	}
	if nSlices > mbH {
		nSlices = mbH
	}
	hdr.slices = nSlices

	// One-frame lookahead (see lookahead.go): frame i+1's source
	// analysis runs while frame i encodes, and frame 0's while the
	// two-pass measurement pass below runs.
	look := &lookahead{a: analyzer{eng: e, cfg: cfg, frames: src.Frames, mbW: mbW, mbH: mbH, aq: hdr.adaptiveQuant, madEMA: -1}}
	overlap := len(src.Frames) > 1 && cfg.RowsParallel != 1
	if overlap {
		look.start(0, cfg.RowsParallel == 0)
	}
	defer look.stop()

	// Two-pass: run the measurement pass with a cheap tool set but the
	// same GOP structure, and charge its work to this encode.
	var rc *rateControl
	if cfg.RC == RCTwoPass {
		fpTools := BaselineTools(PresetUltraFast)
		fpTools.SceneCut = e.Tools.SceneCut
		fp := &Engine{Tools: fpTools}
		fpSpan := sp.Child("first-pass")
		fpRes, err := fp.Encode(src, Config{RC: RCConstQP, QP: firstPassQP, KeyInterval: cfg.KeyInterval, RowsParallel: cfg.RowsParallel})
		fpSpan.End()
		if err != nil {
			return nil, fmt.Errorf("codec: first pass: %w", err)
		}
		res.Counters.Add(&fpRes.Counters)
		rc = newRateControl(cfg, src.Width()*src.Height(), src.FrameRate, len(src.Frames), fpRes.PerFrameBits, firstPassQP)
		// Only the bit budget and counters outlive the first pass;
		// recycle its reconstruction buffers for this pass.
		video.PutSequence(fpRes.Recon)
	} else {
		rc = newRateControl(cfg, src.Width()*src.Height(), src.FrameRate, len(src.Frames), nil, 0)
	}

	out := hdr.marshal()

	var refs []*video.Frame
	res.Recon = &video.Sequence{FrameRate: src.FrameRate}

	// When the padded geometry differs from the display geometry,
	// cropFrame copies the reconstruction, so the padded frames are
	// encoder-private and can be recycled once evicted from the
	// reference list. When they match, cropFrame returns the
	// reconstruction itself — those frames escape through res.Recon
	// and must never be returned to the pool.
	pooledRefs := hdr.paddedWidth() != src.Width() || hdr.paddedHeight() != src.Height()

	// Per-encode scratch state, one per slice lane: level arenas,
	// candidate free lists, and motion-search buffers. Reused across
	// every frame so the per-macroblock path allocates nothing in
	// steady state.
	scratches := make([]encScratch, nSlices)
	qpGrid := make([]int, mbW*mbH) // every MB row is rewritten each frame
	bounds := sliceBounds(mbH, nSlices)

	// Wavefront row lanes (see wavefront.go), one set per slice. Lane
	// counts are resolved once — slice geometry is fixed for the whole
	// encode — and each lane's arenas and candidate pool are reused
	// every frame, so wavefront mode adds only a per-encode constant to
	// the allocation budget.
	rowsPar := cfg.RowsParallel
	waveLanes := make([][]waveLane, nSlices)
	waveCoords := make([]*waveCoord, nSlices)
	waveOn := false
	if rowsPar != 1 {
		for s := 0; s < nSlices; s++ {
			rows := bounds[s+1] - bounds[s]
			lanes := rows
			if rowsPar == 0 {
				if c := cpuGate.Capacity(); lanes > c {
					lanes = c
				}
			} else if lanes > rowsPar {
				lanes = rowsPar
			}
			if lanes < 2 {
				continue
			}
			waveLanes[s] = newWaveLanes(lanes, mbW)
			waveCoords[s] = newWaveCoord(rows)
			waveOn = true
		}
	}

	for i := range src.Frames {
		var fsp *telemetry.Span
		if sp != nil {
			fsp = sp.Child(fmt.Sprintf("frame %d", i))
		}
		fa := look.wait(i)
		if overlap {
			look.start(i+1, cfg.RowsParallel == 0)
		}
		srcP := fa.src
		ftype := fa.ftype
		res.Counters.Add(&fa.c)
		qpBase := rc.frameQP(i, ftype)
		if g := e.Tools.QPGranularity; g > 1 {
			qpBase = clampQP((qpBase + g/2) / g * g)
		}

		// Per-frame shared state: the reconstruction buffer, the QP
		// grid, and (with AQ) the frame-level activity map. Slices
		// write disjoint rows, so they encode concurrently.
		recon := video.GetFrame(hdr.paddedWidth(), hdr.paddedHeight())
		varBits, avgVarBits := fa.varBits, fa.avgVarBits

		payloads := make([][]byte, nSlices)
		sliceCounters := make([]perf.Counters, nSlices)
		var sliceTimes []stageTimes
		var tm *stageTimes
		if stagesOn {
			sliceTimes = make([]stageTimes, nSlices)
			tm = &st
		}
		fes := make([]*frameEncoder, nSlices)
		for s := 0; s < nSlices; s++ {
			fe := newFrameEncoder(e, hdr, srcP, recon, qpGrid, refs, mbW, ftype, qpBase, &sliceCounters[s], &scratches[s])
			fe.rowStart, fe.rowEnd = bounds[s], bounds[s+1]
			fe.varBits, fe.avgVarBits = varBits, avgVarBits
			fe.lanes = waveLanes[s]
			fe.wc = waveCoords[s]
			fe.gateShared = rowsPar == 0
			if stagesOn {
				fe.tm = &sliceTimes[s]
			}
			fes[s] = fe
		}
		var encErr error
		if nSlices == 1 {
			payloads[0] = fes[0].encodeFrame()
		} else {
			// Slices are claimed from a shared cursor by this goroutine
			// and by gated helpers (see helperJoin); a slice panic
			// becomes the encode's error.
			var errOnce sync.Once
			var next atomic.Int32
			helpers := nSlices - 1
			if c := cpuGate.Capacity(); helpers > c {
				helpers = c
			}
			helperJoin(helpers, true, tm, func() {
				for s := int(next.Add(1)) - 1; s < nSlices; s = int(next.Add(1)) - 1 {
					func() {
						defer func() {
							if r := recover(); r != nil {
								errOnce.Do(func() { encErr = fmt.Errorf("codec: slice %d panicked: %v", s, r) })
							}
						}()
						payloads[s] = fes[s].encodeFrame()
					}()
				}
			})
		}
		if encErr != nil {
			fsp.End() // close the frame span on the panic-error path too
			return nil, encErr
		}
		// Merge per-slice work in slice order (deterministic).
		for s := range sliceCounters {
			res.Counters.Add(&sliceCounters[s])
		}
		for s := range sliceTimes {
			st.add(&sliceTimes[s])
		}

		out = append(out, byte(ftype), byte(qpBase))
		frameBits := int64(2) * 8
		for _, payload := range payloads {
			out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
			out = append(out, payload...)
			frameBits += int64(len(payload)+4) * 8
		}
		res.PerFrameBits = append(res.PerFrameBits, frameBits)
		res.FrameTypes = append(res.FrameTypes, ftype)
		rc.update(i, frameBits)

		if e.Tools.Deblock {
			deblockSeams(recon, qpGrid, mbW, bounds, &res.Counters)
		}
		refs = append([]*video.Frame{recon}, refs...)
		if len(refs) > e.Tools.MaxRefs {
			if pooledRefs {
				for _, evicted := range refs[e.Tools.MaxRefs:] {
					video.PutFrame(evicted)
				}
			}
			refs = refs[:e.Tools.MaxRefs]
		}
		res.Recon.Frames = append(res.Recon.Frames, cropFrame(recon, src.Width(), src.Height()))

		res.Counters.Frames++
		res.Counters.Pixels += int64(srcP.PixelCount())

		if fsp != nil {
			if ftype == frameI {
				fsp.Arg("type", "I")
			} else {
				fsp.Arg("type", "P")
			}
			fsp.Arg("qp", qpBase)
			fsp.Arg("slices", nSlices)
			fsp.Arg("bits", frameBits)
			if waveOn {
				var ww, ws int64
				for _, wc := range waveCoords {
					if wc != nil {
						ww += int64(wc.workers)
						ws += wc.stalls
					}
				}
				fsp.Arg("wave_workers", ww)
				fsp.Arg("wave_stalls", ws)
			}
			fsp.End()
		}
	}

	if pooledRefs {
		for _, r := range refs {
			video.PutFrame(r)
		}
	}
	var candAllocs, levelOverflows, sadEarlyExits, revisitsSkipped int64
	tally := func(sc *encScratch) {
		candAllocs += sc.cands.fresh
		levelOverflows += sc.levels.overflows
		sadEarlyExits += sc.motion.SADEarlyExits
		revisitsSkipped += sc.motion.RevisitsSkipped
	}
	for s := range scratches {
		tally(&scratches[s])
		// Wavefront decisions run on the lanes' own scratch.
		for l := range waveLanes[s] {
			tally(&waveLanes[s][l].enc)
		}
	}
	obsCandAllocs.Add(candAllocs)
	obsLevelOverflows.Add(levelOverflows)
	obsKernSADEarlyExits.Add(sadEarlyExits)
	obsKernRevisitsSkipped.Add(revisitsSkipped)

	res.Bitstream = out
	if e.Model != nil {
		res.Seconds = e.Model.Seconds(&res.Counters)
	}
	obsEncodes.Inc()
	obsFrames.Add(int64(len(src.Frames)))
	obsMacroblocks.Add(res.Counters.MBTotal)
	obsBitsOut.Add(int64(len(out)) * 8)
	if stagesOn || sp != nil {
		st.publish(sp, &res.Counters)
	}
	return res, nil
}

// frameMAD samples the mean absolute luma difference between
// consecutive source frames, the scene-cut detection signal.
func frameMAD(cur, prev *video.Frame, c *perf.Counters) float64 {
	if prev == nil {
		return 0
	}
	const stride = 4
	var sum, n int64
	for y := 0; y < cur.Height; y += stride {
		row := y * cur.Width
		for x := 0; x < cur.Width; x += stride {
			d := int64(cur.Y[row+x]) - int64(prev.Y[row+x])
			if d < 0 {
				d = -d
			}
			sum += d
			n++
		}
	}
	c.Count(perf.KSAD, n)
	c.DataDepBranches++
	return float64(sum) / float64(n)
}

// frameEncoder encodes one slice of one frame: the macroblock rows
// [rowStart, rowEnd). With a single slice that is the whole frame;
// with several, the encoders share the frame's reconstruction and QP
// grid (they write disjoint rows) and run concurrently.
type frameEncoder struct {
	eng    *Engine
	hdr    *seqHeader
	w      symWriter
	src    *video.Frame // padded source (shared, read-only)
	recon  *video.Frame // padded reconstruction (shared, disjoint rows)
	refs   []*video.Frame
	grid   *mbGrid // slice-local MB state
	qpGrid []int   // frame-level (shared, disjoint rows)
	mbW    int
	ftype  int
	qpBase int
	c      *perf.Counters
	tm     *stageTimes // per-stage clocks; nil unless telemetry stages are on

	// Slice bounds in macroblock rows.
	rowStart, rowEnd int

	// AQ state (frame-level, shared, read-only).
	varBits    []int
	avgVarBits int

	// sc is the slice lane's persistent scratch memory (level arena,
	// candidate free list, motion buffers); see arena.go.
	sc *encScratch

	// Wavefront state (see wavefront.go): the slice's row lanes and
	// row coordinator, empty/nil when rows encode serially. gateShared
	// selects whether row helpers must win a CPU-gate slot
	// (RowsParallel=0) or are dedicated (explicit RowsParallel>1).
	lanes      []waveLane
	wc         *waveCoord
	gateShared bool
}

func newFrameEncoder(e *Engine, hdr *seqHeader, src, recon *video.Frame, qpGrid []int, refs []*video.Frame, mbW, ftype, qpBase int, c *perf.Counters, sc *encScratch) *frameEncoder {
	fe := &frameEncoder{
		eng:    e,
		hdr:    hdr,
		src:    src,
		recon:  recon,
		refs:   refs,
		qpGrid: qpGrid,
		mbW:    mbW,
		ftype:  ftype,
		qpBase: qpBase,
		c:      c,
		sc:     sc,
	}
	if hdr.entropy == EntropyArith {
		fe.w = newArithWriter()
	} else {
		fe.w = newGolombWriter()
	}
	return fe
}

// sliceTopPx returns the luma row of the slice's first sample.
func (fe *frameEncoder) sliceTopPx() int { return fe.rowStart * MBSize }

// sliceBounds splits n macroblock rows into k contiguous bands and
// returns the k+1 boundaries.
func sliceBounds(rows, k int) []int {
	bounds := make([]int, k+1)
	for s := 0; s <= k; s++ {
		bounds[s] = rows * s / k
	}
	return bounds
}

// computeActivity measures per-MB luma variance (in integer log2
// "bits") for adaptive quantization. Integer throughout, so AQ
// decisions are platform independent.
func computeActivity(src *video.Frame, mbW, mbH int, c *perf.Counters) ([]int, int) {
	varBits := make([]int, mbW*mbH)
	total := 0
	w := src.Width
	for my := 0; my < mbH; my++ {
		for mx := 0; mx < mbW; mx++ {
			var sum, sumSq int64
			for y := 0; y < MBSize; y++ {
				row := (my*MBSize + y) * w
				for x := 0; x < MBSize; x++ {
					v := int64(src.Y[row+mx*MBSize+x])
					sum += v
					sumSq += v * v
				}
			}
			n := int64(MBSize * MBSize)
			variance := sumSq - sum*sum/n
			vb := bits.Len64(uint64(variance/n + 1))
			varBits[my*mbW+mx] = vb
			total += vb
		}
	}
	avg := (total + len(varBits)/2) / len(varBits)
	c.Count(perf.KControl, int64(mbW*mbH*MBSize*MBSize/8))
	return varBits, avg
}

// mbQP returns the macroblock quantizer, applying adaptive quant.
// mby is the frame-global macroblock row.
func (fe *frameEncoder) mbQP(mbx, mby int) (qp, delta int) {
	qp = fe.qpBase
	if fe.hdr.adaptiveQuant {
		delta = fe.varBits[mby*fe.mbW+mbx] - fe.avgVarBits
		if delta > 4 {
			delta = 4
		}
		if delta < -4 {
			delta = -4
		}
		qp = clampQP(qp + delta)
		delta = qp - fe.qpBase
	}
	return qp, delta
}

func (fe *frameEncoder) encodeFrame() []byte {
	rows := fe.rowEnd - fe.rowStart
	fe.grid = newMBGrid(fe.mbW, rows)
	if len(fe.lanes) > 1 && rows > 1 {
		fe.encodeRowsWave(rows)
	} else {
		for local := 0; local < rows; local++ {
			for mbx := 0; mbx < fe.mbW; mbx++ {
				fe.encodeMB(mbx, local)
			}
			fe.deblockAfter(local)
		}
	}
	var payload []byte
	if fe.tm != nil {
		t0 := time.Now()
		payload = fe.w.Flush()
		fe.tm.entropy += time.Since(t0)
	} else {
		payload = fe.w.Flush()
	}
	fe.c.Ops[perf.KEntropy] += fe.w.Bins()
	fe.c.Invocations[perf.KEntropy] += int64(fe.mbW * rows)
	fe.c.BitsOutput += int64(len(payload)+4) * 8 // payload + slice header
	return payload
}

// deblockAfter runs the deblocking units that coding slice-local row
// local releases (see deblock.go).
//
//vbench:noalloc
func (fe *frameEncoder) deblockAfter(local int) {
	if fe.hdr.deblock {
		deblockAfter(fe.recon, fe.qpGrid, fe.mbW, fe.rowStart, fe.rowEnd-fe.rowStart, local)
	}
}

// lumaPlane returns a motion.Plane view of a frame's luma.
func lumaPlane(f *video.Frame) motion.Plane {
	return motion.Plane{Pix: f.Y, W: f.Width, H: f.Height}
}

func chromaPlane(f *video.Frame, p int) motion.Plane {
	if p == 0 {
		return motion.Plane{Pix: f.Cb, W: f.ChromaWidth(), H: f.ChromaHeight()}
	}
	return motion.Plane{Pix: f.Cr, W: f.ChromaWidth(), H: f.ChromaHeight()}
}

// encodeMB codes the macroblock at column mbx, slice-local row local:
// the serial path — decide, serialize, recycle.
func (fe *frameEncoder) encodeMB(mbx, local int) {
	cand, predMV := fe.decideMB(mbx, local)
	fe.writeCand(cand, predMV)
	fe.sc.cands.put(cand)
}

// decideMB performs every effect of coding one macroblock except
// entropy serialization: mode decision, reconstruction commit, QP- and
// MB-grid updates, and work accounting. Wavefront row workers run it
// concurrently (on per-lane encoder views) while writeCand stays in
// strict row order. The MV predictor is captured here because later
// decisions overwrite the grid neighbourhood it reads.
//
//vbench:noalloc
func (fe *frameEncoder) decideMB(mbx, local int) (*mbCand, motion.MV) {
	// The previous macroblock's winner has been serialized (serial
	// path) or compacted into the winner arena (wavefront path), so
	// the trial arena storage is dead; rewind before the new trials.
	fe.sc.levels.reset()
	gRow := fe.rowStart + local
	qp, qpDelta := fe.mbQP(mbx, gRow)
	px, py := mbx*MBSize, gRow*MBSize
	fe.c.MBTotal++
	fe.c.Count(perf.KControl, 40)

	var cand *mbCand
	if fe.ftype == frameP {
		cand = fe.decideInterMB(mbx, local, px, py, qp, qpDelta)
	} else {
		cand = fe.decideIntraMB(px, py, qp, qpDelta)
	}

	predMV := fe.grid.predMV(mbx, local)
	cand.commit(fe.recon, fe.grid, mbx, fe.rowStart, local)
	fe.qpGrid[gRow*fe.mbW+mbx] = cand.qp
	switch cand.mode {
	case mbSkip:
		fe.c.MBSkip++
	case mbInter:
		fe.c.MBInter++
	case mbIntra:
		fe.c.MBIntra++
	}
	return cand, predMV
}

// decideIntraMB evaluates intra modes by SATD and returns the best
// intra candidate (with a transform-size RD check when 8×8 is allowed).
func (fe *frameEncoder) decideIntraMB(px, py, qp, qpDelta int) *mbCand {
	t := &fe.eng.Tools
	reconY := lumaPlane(fe.recon)

	bestMode := predict.ModeDC
	var bestSATD int64 = math.MaxInt64
	var pred [MBSize * MBSize]uint8
	var resid [MBSize * MBSize]int32
	for m := predict.ModeDC; m < predict.NumModes; m++ {
		if !intraAvailClipped(m, px, py, MBSize, reconY, fe.sliceTopPx()) {
			continue
		}
		predict.PredictClipped(pred[:], reconY, px, py, MBSize, m, py > fe.sliceTopPx(), px > 0)
		fe.c.Count(perf.KIntra, MBSize*MBSize)
		fe.lumaResidual(px, py, pred[:], resid[:])
		satd := transform.SATD(resid[:], MBSize, MBSize)
		fe.c.Count(perf.KSAD, MBSize*MBSize)
		satd += lambdaSATDQ4[qp] * 4 / 16 // flat mode-signalling cost
		if satd < bestSATD {
			bestSATD = satd
			bestMode = m
		}
		fe.c.DataDepBranches++
	}

	// Chroma mode by SAD over both planes.
	bestCMode := predict.ModeDC
	var bestCSAD int64 = math.MaxInt64
	var cpred [64]uint8
	for m := predict.ModeDC; m < predict.ModePlane; m++ {
		var sad int64
		ok := true
		for p := 0; p < 2; p++ {
			cp := chromaPlane(fe.recon, p)
			if !intraAvailClipped(m, px/2, py/2, 8, cp, fe.sliceTopPx()/2) {
				ok = false
				break
			}
			predict.PredictClipped(cpred[:], cp, px/2, py/2, 8, m, py/2 > fe.sliceTopPx()/2, px > 0)
			fe.c.Count(perf.KIntra, 64)
			srcp := chromaPlane(fe.src, p)
			sad += kern.SAD(srcp.Pix[(py/2)*srcp.W+px/2:], srcp.W, cpred[:], 8, 8, 8)
		}
		if ok && sad < bestCSAD {
			bestCSAD = sad
			bestCMode = m
		}
		fe.c.DataDepBranches++
	}

	// Chroma coding does not depend on the luma variant, so it is
	// coded once, on the first candidate; each later variant shares its
	// levels and reconstruction and bills its work again, so the
	// counters end where coding it per variant would leave them.
	cand := fe.buildIntraCand(px, py, bestMode, bestCMode, false, qp, qpDelta)
	chroma := *fe.c
	fe.codeChromaIntra(cand, px, py, bestCMode)
	chromaWork := *fe.c
	chromaWork.Sub(&chroma)
	if t.Transform8x8 {
		cand8 := fe.buildIntraCand(px, py, bestMode, bestCMode, true, qp, qpDelta)
		cand8.chromaLevels, cand8.chromaRecon = cand.chromaLevels, cand.chromaRecon
		fe.c.Add(&chromaWork)
		cand = fe.pickByRD(px, py, cand, cand8)
	}
	if t.Intra4x4 {
		cand4 := fe.buildIntra4Cand(px, py, bestCMode, qp, qpDelta)
		cand4.chromaLevels, cand4.chromaRecon = cand.chromaLevels, cand.chromaRecon
		fe.c.Add(&chromaWork)
		cand = fe.pickByRD(px, py, cand, cand4)
	}
	return cand
}

// decideInterMB runs skip detection, motion search, and the
// intra/inter decision for one P-frame macroblock.
func (fe *frameEncoder) decideInterMB(mbx, mby, px, py, qp, qpDelta int) *mbCand {
	t := &fe.eng.Tools
	predMV := fe.grid.predMV(mbx, mby)
	srcY := lumaPlane(fe.src)

	// 1. Early skip: if the prediction at the predicted MV is already
	// tight, test whether the whole MB quantizes to zero.
	ref0 := lumaPlane(fe.refs[0])
	skipThresh := int64(transform.QStepQ6(qp)) * MBSize * MBSize / 64 / 2
	// The SAD scan may abort at skipThresh+1: an aborted value is
	// > skipThresh, so the skip decision below is identical to the one
	// the exact SAD would make, and counter accounting is unchanged.
	skipSAD, skipEarly := motion.PredSADThresh(srcY, px, py, ref0, predMV, MBSize, MBSize, skipThresh+1, fe.c)
	if skipEarly {
		fe.sc.motion.SADEarlyExits++
	}
	fe.c.DataDepBranches++
	var skipCand, trial *mbCand
	var work interWork
	if skipSAD <= skipThresh {
		skipCand, trial = fe.buildSkipCand(px, py, predMV, qp, qpDelta, &work)
	}
	if skipCand != nil && !t.RDMode {
		return skipCand
	}

	// 2. Motion search over the reference list.
	params := motion.Params{
		Kind:   t.Search,
		Range:  t.SearchRange,
		SubPel: t.SubPel,
		Lambda: lambdaSATDQ4[qp],
	}
	var mt0 time.Time
	if fe.tm != nil {
		mt0 = time.Now()
	}
	bestRef := 0
	bestMV := motion.MV{}
	var bestCost int64 = math.MaxInt64
	for r := 0; r < len(fe.refs) && r < t.MaxRefs; r++ {
		mv, cost := motion.Search(srcY, px, py, lumaPlane(fe.refs[r]), predMV, MBSize, MBSize, params, &fe.sc.motion, fe.c)
		cost += lambdaSATDQ4[qp] * int64(r) / 4 // reference index rate
		if cost < bestCost {
			bestCost = cost
			bestMV = mv
			bestRef = r
		}
	}
	if fe.tm != nil {
		fe.tm.motion += time.Since(mt0)
	}

	// 3. Intra-vs-inter decision by SATD heuristic (or full RD below).
	// When the search lands on the failed skip trial's vector, the
	// trial is the inter candidate: bill its work a second time so the
	// counters match a rebuild.
	var interCand *mbCand
	if trial != nil && bestRef == 0 && bestMV == predMV {
		fe.c.Add(&work.all)
		interCand = trial
	} else {
		if trial != nil {
			fe.sc.cands.put(trial)
		}
		interCand = fe.buildInterCand(px, py, bestMV, bestRef, qp, qpDelta, &work)
	}
	if t.Transform8x8 {
		cand8 := fe.buildInterCand8(px, py, interCand, &work)
		interCand = fe.pickByRD(px, py, interCand, cand8)
	}

	// Cheap intra probe: only evaluate full intra when inter predicts
	// poorly (classic early-out), or always under RDMode.
	interSSE := fe.candSSE(px, py, interCand)
	intraWorthTrying := interSSE > int64(MBSize*MBSize)*int64(transform.QStepQ6(qp)/64+2)*int64(transform.QStepQ6(qp)/64+2)
	fe.c.DataDepBranches++

	var intraCand *mbCand
	if intraWorthTrying || t.RDMode {
		intraCand = fe.decideIntraMB(px, py, qp, qpDelta)
	}

	if t.RDMode {
		best := fe.pickByRD(px, py, interCand, intraCand)
		best = fe.pickByRD(px, py, best, skipCand)
		return best
	}
	if intraCand != nil {
		return fe.pickByRD(px, py, interCand, intraCand)
	}
	return interCand
}

// pickByRD compares two candidates by SSE + λ·bits; either may be nil.
// The loser is recycled into the candidate pool, so callers must not
// hold onto both arguments after the call.
func (fe *frameEncoder) pickByRD(px, py int, a, b *mbCand) *mbCand {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	fe.c.Count(perf.KControl, 20)
	costA := float64(fe.candSSE(px, py, a)) + lambdaMode[a.qp]*float64(fe.candBits(a))
	costB := float64(fe.candSSE(px, py, b)) + lambdaMode[b.qp]*float64(fe.candBits(b))
	if costB < costA {
		fe.sc.cands.put(a)
		return b
	}
	fe.sc.cands.put(b)
	return a
}

// candSSE returns the squared reconstruction error of a candidate.
func (fe *frameEncoder) candSSE(px, py int, c *mbCand) int64 {
	var sse int64
	w := fe.src.Width
	for y := 0; y < MBSize; y++ {
		row := (py + y) * w
		for x := 0; x < MBSize; x++ {
			d := int64(fe.src.Y[row+px+x]) - int64(c.lumaRecon[y*MBSize+x])
			sse += d * d
		}
	}
	cw := fe.src.ChromaWidth()
	for p := 0; p < 2; p++ {
		plane := fe.src.Cb
		if p == 1 {
			plane = fe.src.Cr
		}
		for y := 0; y < 8; y++ {
			row := (py/2 + y) * cw
			for x := 0; x < 8; x++ {
				d := int64(plane[row+px/2+x]) - int64(c.chromaRecon[p][y*8+x])
				sse += d * d
			}
		}
	}
	return sse
}

// candBits estimates the coded size of a candidate in bits.
func (fe *frameEncoder) candBits(c *mbCand) int {
	if c.mode == mbSkip {
		return 1
	}
	b := 8 // flags, modes
	if c.mode == mbInter {
		b += ueBitsFast(seMap(c.mv.X)) + ueBitsFast(seMap(c.mv.Y))
	}
	if c.intra4 {
		b += 32 // sixteen per-block mode codes
	}
	for _, blk := range c.lumaLevels {
		if blk != nil {
			b += residualBits(blk) + 1
		}
	}
	for p := 0; p < 2; p++ {
		for _, blk := range c.chromaLevels[p] {
			if blk != nil {
				b += residualBits(blk) + 1
			}
		}
	}
	return b
}

// lumaResidual computes src − pred for the MB at (px, py).
func (fe *frameEncoder) lumaResidual(px, py int, pred []uint8, out []int32) {
	w := fe.src.Width
	for y := 0; y < MBSize; y++ {
		row := (py + y) * w
		for x := 0; x < MBSize; x++ {
			out[y*MBSize+x] = int32(fe.src.Y[row+px+x]) - int32(pred[y*MBSize+x])
		}
	}
}

// buildSkipCand codes the inter candidate at predMV from ref 0 with
// the 4×4 transform. If the whole macroblock quantizes to zero it
// returns that candidate relabelled as a skip. Otherwise it returns
// the coded trial, exactly as buildInterCand builds it, with its work
// in w, so the caller can reuse the trial instead of rebuilding it.
func (fe *frameEncoder) buildSkipCand(px, py int, predMV motion.MV, qp, qpDelta int, w *interWork) (skip, trial *mbCand) {
	cand := fe.buildInterCand(px, py, predMV, 0, qp, qpDelta, w)
	coded := false
	for _, blk := range cand.lumaLevels {
		if blk != nil {
			coded = true
		}
	}
	for p := 0; p < 2; p++ {
		for _, blk := range cand.chromaLevels[p] {
			if blk != nil {
				coded = true
			}
		}
	}
	if coded {
		return nil, cand
	}
	cand.mode = mbSkip
	cand.qp, cand.qpDelta = fe.qpBase, 0 // skip MBs carry no QP delta
	return cand, nil
}

// mcLuma produces the luma motion-compensated prediction using the
// stream's interpolation mode.
func mcLuma(hdr *seqHeader, dst []uint8, ref motion.Plane, px, py int, mv motion.MV, sc *motion.Scratch, c *perf.Counters) {
	if hdr.sharpInterp {
		motion.PredictLumaSharp(dst, ref, px, py, mv, MBSize, MBSize, sc)
		c.Count(perf.KInterp, MBSize*MBSize*2)
		return
	}
	motion.PredictLuma(dst, ref, px, py, mv, MBSize, MBSize)
	c.Count(perf.KInterp, MBSize*MBSize)
}

// interWork is the work building one inter candidate billed, in total
// and for its chroma alone. Reusing the candidate in place of a
// rebuild bills all again; its 8×8-transform twin, which takes its
// chroma, bills chroma again. Either way the counters end exactly
// where a rebuild would leave them.
type interWork struct {
	all, chroma perf.Counters
}

// buildInterCand constructs a fully reconstructed inter candidate with
// the 4×4 luma transform and writes the work it billed to w.
func (fe *frameEncoder) buildInterCand(px, py int, mv motion.MV, ref int, qp, qpDelta int, w *interWork) *mbCand {
	t := &fe.eng.Tools
	start := *fe.c
	cand := fe.sc.cands.get()
	// Whole-struct assignment resets every recycled field (levels,
	// modes, recon), making a pooled candidate indistinguishable from
	// a fresh allocation.
	*cand = mbCand{mode: mbInter, mv: mv, ref: ref, qp: qp, qpDelta: qpDelta}
	fe.codeInterLuma(cand, px, py)

	chroma := *fe.c
	var cpred [64]uint8
	var cres [64]int32
	for p := 0; p < 2; p++ {
		motion.PredictChroma(cpred[:], chromaPlane(fe.refs[ref], p), px/2, py/2, mv, 8, 8)
		fe.c.Count(perf.KInterp, 64)
		fe.chromaResidual(px, py, p, cpred[:], cres[:])
		fe.codeChroma(cand, p, cpred[:], cres[:], transform.DeadZoneInter, t.Trellis)
	}
	w.chroma = *fe.c
	w.chroma.Sub(&chroma)
	w.all = *fe.c
	w.all.Sub(&start)
	return cand
}

// buildInterCand8 constructs the 8×8-transform twin of the inter
// candidate c, whose build billed w. Chroma coding does not depend on
// the luma transform size, so the twin shares c's chroma levels and
// reconstruction and bills w.chroma again; only the luma is coded.
func (fe *frameEncoder) buildInterCand8(px, py int, c *mbCand, w *interWork) *mbCand {
	cand := fe.sc.cands.get()
	*cand = mbCand{mode: mbInter, mv: c.mv, ref: c.ref, tx8: true, qp: c.qp, qpDelta: c.qpDelta,
		chromaLevels: c.chromaLevels, chromaRecon: c.chromaRecon}
	fe.codeInterLuma(cand, px, py)
	fe.c.Add(&w.chroma)
	return cand
}

// codeInterLuma predicts and codes the luma of an inter candidate at
// its vector, reference and transform size.
func (fe *frameEncoder) codeInterLuma(cand *mbCand, px, py int) {
	var pred [MBSize * MBSize]uint8
	mcLuma(fe.hdr, pred[:], lumaPlane(fe.refs[cand.ref]), px, py, cand.mv, &fe.sc.motion, fe.c)
	var resid [MBSize * MBSize]int32
	fe.lumaResidual(px, py, pred[:], resid[:])
	fe.codeLuma(cand, pred[:], resid[:], transform.DeadZoneInter, fe.eng.Tools.Trellis)
}

// buildIntraCand constructs an intra candidate with its luma coded and
// reconstructed; decideIntraMB codes the chroma.
func (fe *frameEncoder) buildIntraCand(px, py int, lumaMode, chromaMode predict.Mode, tx8 bool, qp, qpDelta int) *mbCand {
	t := &fe.eng.Tools
	cand := fe.sc.cands.get()
	*cand = mbCand{mode: mbIntra, lumaMode: lumaMode, chromaMode: chromaMode, tx8: tx8, qp: qp, qpDelta: qpDelta}

	var pred [MBSize * MBSize]uint8
	predict.PredictClipped(pred[:], lumaPlane(fe.recon), px, py, MBSize, lumaMode, py > fe.sliceTopPx(), px > 0)
	fe.c.Count(perf.KIntra, MBSize*MBSize)

	var resid [MBSize * MBSize]int32
	fe.lumaResidual(px, py, pred[:], resid[:])
	fe.codeLuma(cand, pred[:], resid[:], transform.DeadZoneIntra, t.Trellis)
	return cand
}

// codeChromaIntra predicts and codes both chroma planes of an intra
// candidate.
func (fe *frameEncoder) codeChromaIntra(cand *mbCand, px, py int, chromaMode predict.Mode) {
	t := &fe.eng.Tools
	var cpred [64]uint8
	var cres [64]int32
	for p := 0; p < 2; p++ {
		predict.PredictClipped(cpred[:], chromaPlane(fe.recon, p), px/2, py/2, 8, chromaMode, py/2 > fe.sliceTopPx()/2, px > 0)
		fe.c.Count(perf.KIntra, 64)
		fe.chromaResidual(px, py, p, cpred[:], cres[:])
		fe.codeChroma(cand, p, cpred[:], cres[:], transform.DeadZoneIntra, t.Trellis)
	}
}

// buildIntra4Cand constructs a per-4×4-block intra candidate's luma:
// each block chooses its own directional mode, predicted from the
// blocks reconstructed before it. decideIntraMB codes the chroma.
func (fe *frameEncoder) buildIntra4Cand(px, py int, chromaMode predict.Mode, qp, qpDelta int) *mbCand {
	t := &fe.eng.Tools
	cand := fe.sc.cands.get()
	*cand = mbCand{mode: mbIntra, intra4: true, chromaMode: chromaMode, qp: qp, qpDelta: qpDelta}
	reconY := lumaPlane(fe.recon)
	w := fe.src.Width

	var pred, bestPred [16]uint8
	var blk, rblk [16]int32
	for b := 0; b < 16; b++ {
		ox, oy := block4Offset(b)
		bestMode := predict.ModeDC
		var bestSAD int64 = math.MaxInt64
		for m := predict.ModeDC; m <= predict.ModeHorizontal; m++ {
			if !intra4Avail(m, px, py, ox, oy, fe.sliceTopPx()) {
				continue
			}
			if err := intra4PredictBlock(pred[:], m, reconY, cand, px, py, ox, oy, fe.sliceTopPx()); err != nil {
				continue
			}
			fe.c.Count(perf.KIntra, 16)
			sad := kern.SAD(fe.src.Y[(py+oy)*w+px+ox:], w, pred[:], 4, 4, 4)
			fe.c.DataDepBranches++
			if sad < bestSAD {
				bestSAD = sad
				bestMode = m
				bestPred = pred
			}
		}
		cand.luma4Modes[b] = bestMode

		for y := 0; y < 4; y++ {
			row := (py + oy + y) * w
			for x := 0; x < 4; x++ {
				blk[y*4+x] = int32(fe.src.Y[row+px+ox+x]) - int32(bestPred[y*4+x])
			}
		}
		levels := quantizeBlock(blk[:], rblk[:], 4, qp, transform.DeadZoneIntra, t.Trellis, &fe.sc.levels, fe.c)
		cand.lumaLevels[b] = levels
		if levels != nil {
			fe.c.BlocksCoded++
		}
		// Reconstruct into the candidate so later blocks predict from
		// the coded samples, exactly as the decoder will.
		cand.composeBlock4(ox, oy, bestPred[:], rblk[:])
	}
	return cand
}

// chromaResidual computes src − pred for one 8×8 chroma block.
func (fe *frameEncoder) chromaResidual(px, py, p int, pred []uint8, out []int32) {
	plane := fe.src.Cb
	if p == 1 {
		plane = fe.src.Cr
	}
	cw := fe.src.ChromaWidth()
	for y := 0; y < 8; y++ {
		row := (py/2 + y) * cw
		for x := 0; x < 8; x++ {
			out[y*8+x] = int32(plane[row+px/2+x]) - int32(pred[y*8+x])
		}
	}
}

// codeLuma transforms, quantizes, and reconstructs the luma residual
// of a candidate.
func (fe *frameEncoder) codeLuma(cand *mbCand, pred []uint8, resid []int32, dz transform.DeadZone, trellis bool) {
	if fe.tm != nil {
		defer fe.tm.sinceTransform(time.Now())
	}
	var reconRes [MBSize * MBSize]int32
	if cand.tx8 {
		var blk, rblk [64]int32
		for q := 0; q < 4; q++ {
			ox, oy := block8Offset(q)
			gatherBlock(resid, MBSize, ox, oy, 8, blk[:])
			levels := quantizeBlock(blk[:], rblk[:], 8, cand.qp, dz, trellis, &fe.sc.levels, fe.c)
			cand.lumaLevels[q] = levels
			scatterBlock(reconRes[:], MBSize, ox, oy, 8, rblk[:])
			if levels != nil {
				fe.c.BlocksCoded++
			}
		}
	} else {
		var blk, rblk [16]int32
		for b := 0; b < 16; b++ {
			ox, oy := block4Offset(b)
			gatherBlock(resid, MBSize, ox, oy, 4, blk[:])
			levels := quantizeBlock(blk[:], rblk[:], 4, cand.qp, dz, trellis, &fe.sc.levels, fe.c)
			cand.lumaLevels[b] = levels
			scatterBlock(reconRes[:], MBSize, ox, oy, 4, rblk[:])
			if levels != nil {
				fe.c.BlocksCoded++
			}
		}
	}
	composeRecon(cand.lumaRecon[:], pred, reconRes[:], MBSize*MBSize)
}

// codeChroma transforms, quantizes, and reconstructs one chroma plane
// of a candidate.
func (fe *frameEncoder) codeChroma(cand *mbCand, p int, pred []uint8, resid []int32, dz transform.DeadZone, trellis bool) {
	if fe.tm != nil {
		defer fe.tm.sinceTransform(time.Now())
	}
	var reconRes [64]int32
	var blk, rblk [16]int32
	for b := 0; b < 4; b++ {
		ox, oy := (b%2)*4, (b/2)*4
		gatherBlock(resid, 8, ox, oy, 4, blk[:])
		levels := quantizeBlock(blk[:], rblk[:], 4, cand.qp, dz, trellis, &fe.sc.levels, fe.c)
		cand.chromaLevels[p][b] = levels
		scatterBlock(reconRes[:], 8, ox, oy, 4, rblk[:])
		if levels != nil {
			fe.c.BlocksCoded++
		}
	}
	composeRecon(cand.chromaRecon[p][:], pred, reconRes[:], 64)
}

// composeBlock4 writes clip(pred + res) into the 4×4 block at (ox, oy)
// of the candidate's luma reconstruction.
func (c *mbCand) composeBlock4(ox, oy int, pred []uint8, res []int32) {
	for y := 0; y < 4; y++ {
		composeRecon(c.lumaRecon[(oy+y)*MBSize+ox:], pred[y*4:], res[y*4:], 4)
	}
}

// gatherBlock copies an n×n sub-block out of a stride-w region.
//
//vbench:noalloc
func gatherBlock(src []int32, w, ox, oy, n int, dst []int32) {
	for y := 0; y < n; y++ {
		copy(dst[y*n:(y+1)*n], src[(oy+y)*w+ox:(oy+y)*w+ox+n])
	}
}

// scatterBlock copies an n×n sub-block back into a stride-w region.
//
//vbench:noalloc
func scatterBlock(dst []int32, w, ox, oy, n int, src []int32) {
	for y := 0; y < n; y++ {
		copy(dst[(oy+y)*w+ox:(oy+y)*w+ox+n], src[y*n:(y+1)*n])
	}
}

// composeRecon writes clip(pred + residual) into dst.
//
//vbench:noalloc
func composeRecon(dst []uint8, pred []uint8, res []int32, n int) {
	for i := 0; i < n; i++ {
		v := int32(pred[i]) + res[i]
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		dst[i] = uint8(v)
	}
}

// writeCand serializes a candidate through the symbol writer. The
// field order here is the normative macroblock syntax; the decoder
// mirrors it exactly.
func (fe *frameEncoder) writeCand(c *mbCand, predMV motion.MV) {
	if fe.tm != nil {
		defer fe.tm.sinceEntropy(time.Now())
	}
	w := fe.w
	if fe.ftype == frameP {
		if c.mode == mbSkip {
			w.Bit(ctxSkip, 1)
			return
		}
		w.Bit(ctxSkip, 0)
		if c.mode == mbIntra {
			w.Bit(ctxIntraFlag, 1)
		} else {
			w.Bit(ctxIntraFlag, 0)
		}
	}
	if c.mode == mbIntra {
		if c.intra4 {
			w.UE(ctxLumaMode, lumaModeIntra4)
			for b := 0; b < 16; b++ {
				w.UE(ctxLumaMode4, uint32(c.luma4Modes[b]))
			}
		} else {
			w.UE(ctxLumaMode, uint32(c.lumaMode))
		}
		w.UE(ctxChromaMode, uint32(c.chromaMode))
	} else {
		if fe.hdr.refs > 1 {
			w.UE(ctxRefIdx, uint32(c.ref))
		}
		w.SE(ctxMVD, c.mv.X-predMV.X)
		w.SE(ctxMVD, c.mv.Y-predMV.Y)
	}
	fe.writeMBTail(c)
}

func (fe *frameEncoder) writeMBTail(c *mbCand) {
	w := fe.w
	rich := fe.hdr.richContexts
	if fe.hdr.tx8Allowed && !c.intra4 {
		if c.tx8 {
			w.Bit(ctxTx8, 1)
		} else {
			w.Bit(ctxTx8, 0)
		}
	}
	if fe.hdr.adaptiveQuant {
		w.SE(ctxQPDelta, int32(c.qpDelta))
	}
	// CBP: 4 luma quadrant bits then 2 chroma plane bits.
	for q := 0; q < 4; q++ {
		if c.lumaQuadCoded(q) {
			w.Bit(ctxCBPLuma, 1)
		} else {
			w.Bit(ctxCBPLuma, 0)
		}
	}
	for p := 0; p < 2; p++ {
		if c.chromaPlaneCoded(p) {
			w.Bit(ctxCBPChroma, 1)
		} else {
			w.Bit(ctxCBPChroma, 0)
		}
	}
	// Luma residual.
	if c.tx8 {
		for q := 0; q < 4; q++ {
			if c.lumaLevels[q] != nil {
				writeResidualBlock(w, c.lumaLevels[q], rich)
			}
		}
	} else {
		for q := 0; q < 4; q++ {
			if !c.lumaQuadCoded(q) {
				continue
			}
			for _, b := range quadBlocks4[q] {
				if c.lumaLevels[b] != nil {
					w.Bit(ctxBlkFlag, 1)
					writeResidualBlock(w, c.lumaLevels[b], rich)
				} else {
					w.Bit(ctxBlkFlag, 0)
				}
			}
		}
	}
	// Chroma residual.
	for p := 0; p < 2; p++ {
		if !c.chromaPlaneCoded(p) {
			continue
		}
		for b := 0; b < 4; b++ {
			if c.chromaLevels[p][b] != nil {
				w.Bit(ctxBlkFlag, 1)
				writeResidualBlock(w, c.chromaLevels[p][b], rich)
			} else {
				w.Bit(ctxBlkFlag, 0)
			}
		}
	}
}
