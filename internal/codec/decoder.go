package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vbench/internal/codec/motion"
	"vbench/internal/codec/predict"
	"vbench/internal/perf"
	"vbench/internal/video"
)

// Decode parses a complete VBC1 bitstream and reconstructs the video.
// The output is bit-identical to the encoder's Result.Recon — a
// property the test suite enforces — so decode really is the normative
// definition of the format.
func Decode(data []byte) (*video.Sequence, *perf.Counters, error) {
	c := &perf.Counters{}
	hdr, off, err := parseSeqHeader(data)
	if err != nil {
		return nil, nil, err
	}
	seq := &video.Sequence{FrameRate: float64(hdr.fpsMilli) / 1000}
	mbW := hdr.paddedWidth() / MBSize
	mbH := hdr.paddedHeight() / MBSize

	var refs []*video.Frame
	bounds := sliceBounds(mbH, hdr.slices)
	// Same pooling rule as the encoder: padded reconstructions are
	// decoder-private (cropFrame copies them) and recyclable; aligned
	// ones escape through the returned sequence.
	pooledRefs := hdr.paddedWidth() != hdr.width || hdr.paddedHeight() != hdr.height
	scratches := make([]decScratch, hdr.slices)
	qpGrid := make([]int, mbW*mbH)
	for fi := 0; fi < hdr.frames; fi++ {
		if off+2 > len(data) {
			return nil, nil, fmt.Errorf("codec: truncated frame header at frame %d", fi)
		}
		ftype := int(data[off])
		qpBase := int(data[off+1])
		off += 2
		if ftype != frameI && ftype != frameP {
			return nil, nil, fmt.Errorf("codec: invalid frame type %d at frame %d", ftype, fi)
		}
		if qpBase > 51 {
			return nil, nil, fmt.Errorf("codec: invalid base QP %d at frame %d", qpBase, fi)
		}
		if ftype == frameP && len(refs) == 0 {
			return nil, nil, fmt.Errorf("codec: P frame %d without reference", fi)
		}

		recon := video.GetFrame(hdr.paddedWidth(), hdr.paddedHeight())
		for s := 0; s < hdr.slices; s++ {
			if off+4 > len(data) {
				return nil, nil, fmt.Errorf("codec: truncated slice header at frame %d slice %d", fi, s)
			}
			size := int(binary.BigEndian.Uint32(data[off : off+4]))
			off += 4
			if off+size > len(data) {
				return nil, nil, fmt.Errorf("codec: truncated payload at frame %d slice %d", fi, s)
			}
			payload := data[off : off+size]
			off += size

			fd := &frameDecoder{
				hdr:      hdr,
				recon:    recon,
				refs:     refs,
				grid:     newMBGrid(mbW, bounds[s+1]-bounds[s]),
				qpGrid:   qpGrid,
				mbW:      mbW,
				rowStart: bounds[s],
				rowEnd:   bounds[s+1],
				ftype:    ftype,
				qpBase:   qpBase,
				c:        c,
				sc:       &scratches[s],
			}
			if hdr.entropy == EntropyArith {
				fd.r = newArithReader(payload)
			} else {
				fd.r = newGolombReader(payload)
			}
			if err := fd.decodeSlice(); err != nil {
				return nil, nil, fmt.Errorf("codec: frame %d slice %d: %w", fi, s, err)
			}
		}
		if hdr.deblock {
			deblockSeams(recon, qpGrid, mbW, bounds, c)
		}
		refs = append([]*video.Frame{recon}, refs...)
		if len(refs) > hdr.refs {
			if pooledRefs {
				for _, evicted := range refs[hdr.refs:] {
					video.PutFrame(evicted)
				}
			}
			refs = refs[:hdr.refs]
		}
		seq.Frames = append(seq.Frames, cropFrame(recon, hdr.width, hdr.height))
		c.Frames++
		c.Pixels += int64(hdr.paddedWidth() * hdr.paddedHeight())
	}
	if pooledRefs {
		for _, r := range refs {
			video.PutFrame(r)
		}
	}
	return seq, c, nil
}

// frameDecoder mirrors frameEncoder on the parse side: one instance
// decodes the macroblock rows [rowStart, rowEnd) of one frame.
type frameDecoder struct {
	hdr      *seqHeader
	r        symReader
	recon    *video.Frame
	refs     []*video.Frame
	grid     *mbGrid // slice-local
	qpGrid   []int   // frame-level
	mbW      int
	rowStart int
	rowEnd   int
	ftype    int
	qpBase   int
	c        *perf.Counters
	sc       *decScratch // persistent per-slice-lane scratch (arena.go)
}

// sliceTopPx returns the luma row of the slice's first sample.
func (fd *frameDecoder) sliceTopPx() int { return fd.rowStart * MBSize }

// errOverread rejects a slice whose macroblocks need more bits than
// its payload holds. It bounds the decode work by the bytes present: a
// valid stream never overreads, so the slice stops at the first
// macroblock that did rather than decoding made-up bits to the end of
// a frame as large as its header declares.
var errOverread = errors.New("codec: slice payload ends before its last macroblock")

func (fd *frameDecoder) decodeSlice() error {
	rows := fd.rowEnd - fd.rowStart
	for local := 0; local < rows; local++ {
		for mbx := 0; mbx < fd.mbW; mbx++ {
			if err := fd.decodeMB(mbx, local); err != nil {
				return fmt.Errorf("MB (%d,%d): %w", mbx, fd.rowStart+local, err)
			}
			if fd.r.Overread() {
				return fmt.Errorf("MB (%d,%d): %w", mbx, fd.rowStart+local, errOverread)
			}
		}
		if fd.hdr.deblock {
			deblockAfter(fd.recon, fd.qpGrid, fd.mbW, fd.rowStart, rows, local)
		}
	}
	fd.c.Ops[perf.KDecode] += fd.r.Bins()
	fd.c.Invocations[perf.KDecode] += int64(fd.mbW * rows)
	return nil
}

// decodeMB parses and reconstructs the macroblock at column mbx,
// slice-local row local.
func (fd *frameDecoder) decodeMB(mbx, local int) error {
	px, py := mbx*MBSize, (fd.rowStart+local)*MBSize
	predMV := fd.grid.predMV(mbx, local)

	// The previous macroblock has been committed, so its level storage
	// and candidate struct are dead; reuse both. The whole-struct
	// assignment resets every field exactly as a fresh allocation
	// would.
	fd.sc.levels.reset()
	cand := &fd.sc.cand
	*cand = mbCand{qp: fd.qpBase}
	if fd.ftype == frameP {
		skip, err := fd.r.Bit(ctxSkip)
		if err != nil {
			return err
		}
		if skip == 1 {
			cand.mode = mbSkip
			cand.mv = predMV
			cand.ref = 0
			return fd.reconstructInter(cand, mbx, local, px, py)
		}
		intra, err := fd.r.Bit(ctxIntraFlag)
		if err != nil {
			return err
		}
		if intra == 1 {
			cand.mode = mbIntra
		} else {
			cand.mode = mbInter
		}
	} else {
		cand.mode = mbIntra
	}

	if cand.mode == mbIntra {
		lm, err := fd.r.UE(ctxLumaMode)
		if err != nil {
			return err
		}
		switch {
		case lm == lumaModeIntra4:
			if !fd.hdr.intra4Allowed {
				return errors.New("intra4 macroblock in stream without intra4 flag")
			}
			cand.intra4 = true
			for b := 0; b < 16; b++ {
				m, err := fd.r.UE(ctxLumaMode4)
				if err != nil {
					return err
				}
				if m > uint32(predict.ModeHorizontal) {
					return errors.New("invalid intra4 block mode")
				}
				cand.luma4Modes[b] = predict.Mode(m)
			}
		case lm < uint32(predict.NumModes):
			cand.lumaMode = predict.Mode(lm)
		default:
			return errors.New("invalid intra mode")
		}
		cm, err := fd.r.UE(ctxChromaMode)
		if err != nil {
			return err
		}
		if cm >= uint32(predict.ModePlane) {
			return errors.New("invalid chroma intra mode")
		}
		cand.chromaMode = predict.Mode(cm)
	} else {
		if fd.hdr.refs > 1 {
			ref, err := fd.r.UE(ctxRefIdx)
			if err != nil {
				return err
			}
			if int(ref) >= len(fd.refs) {
				return fmt.Errorf("reference index %d out of range", ref)
			}
			cand.ref = int(ref)
		}
		dx, err := fd.r.SE(ctxMVD)
		if err != nil {
			return err
		}
		dy, err := fd.r.SE(ctxMVD)
		if err != nil {
			return err
		}
		cand.mv = motion.MV{X: predMV.X + dx, Y: predMV.Y + dy}
	}

	if err := fd.readMBTail(cand); err != nil {
		return err
	}
	if cand.mode == mbIntra {
		return fd.reconstructIntra(cand, mbx, local, px, py)
	}
	return fd.reconstructInter(cand, mbx, local, px, py)
}

// readMBTail parses transform size, QP delta, CBP, and residuals,
// mirroring writeMBTail.
func (fd *frameDecoder) readMBTail(cand *mbCand) error {
	r := fd.r
	rich := fd.hdr.richContexts
	if fd.hdr.tx8Allowed && !cand.intra4 {
		t8, err := r.Bit(ctxTx8)
		if err != nil {
			return err
		}
		cand.tx8 = t8 == 1
	}
	if fd.hdr.adaptiveQuant {
		d, err := r.SE(ctxQPDelta)
		if err != nil {
			return err
		}
		cand.qpDelta = int(d)
		cand.qp = clampQP(fd.qpBase + cand.qpDelta)
	}
	var quadCoded [4]bool
	for q := 0; q < 4; q++ {
		b, err := r.Bit(ctxCBPLuma)
		if err != nil {
			return err
		}
		quadCoded[q] = b == 1
	}
	var planeCoded [2]bool
	for p := 0; p < 2; p++ {
		b, err := r.Bit(ctxCBPChroma)
		if err != nil {
			return err
		}
		planeCoded[p] = b == 1
	}
	// Coded-block levels live in the slice lane's arena; uncoded
	// blocks keep the nil entries the candidate reset left behind.
	// readResidualBlock zeroes its buffer first, so dirty arena memory
	// is harmless.
	if cand.tx8 {
		for q := 0; q < 4; q++ {
			if !quadCoded[q] {
				continue
			}
			zz := fd.sc.levels.take(64)
			if err := readResidualBlock(r, zz, rich); err != nil {
				return err
			}
			cand.lumaLevels[q] = zz
		}
	} else {
		for q := 0; q < 4; q++ {
			if !quadCoded[q] {
				continue
			}
			for _, b := range quadBlocks4[q] {
				flag, err := r.Bit(ctxBlkFlag)
				if err != nil {
					return err
				}
				if flag == 1 {
					zz := fd.sc.levels.take(16)
					if err := readResidualBlock(r, zz, rich); err != nil {
						return err
					}
					cand.lumaLevels[b] = zz
				}
			}
		}
	}
	for p := 0; p < 2; p++ {
		if !planeCoded[p] {
			continue
		}
		for b := 0; b < 4; b++ {
			flag, err := r.Bit(ctxBlkFlag)
			if err != nil {
				return err
			}
			if flag == 1 {
				zz := fd.sc.levels.take(16)
				if err := readResidualBlock(r, zz, rich); err != nil {
					return err
				}
				cand.chromaLevels[p][b] = zz
			}
		}
	}
	return nil
}

// reconstructInter rebuilds an inter (or skip) macroblock.
func (fd *frameDecoder) reconstructInter(cand *mbCand, mbx, local, px, py int) error {
	if cand.ref >= len(fd.refs) {
		return fmt.Errorf("reference %d unavailable", cand.ref)
	}
	ref := fd.refs[cand.ref]
	var pred [MBSize * MBSize]uint8
	mcLuma(fd.hdr, pred[:], lumaPlane(ref), px, py, cand.mv, &fd.sc.motion, fd.c)
	fd.composeLuma(cand, pred[:], px, py)

	var cpred [64]uint8
	for p := 0; p < 2; p++ {
		motion.PredictChroma(cpred[:], chromaPlane(ref, p), px/2, py/2, cand.mv, 8, 8)
		fd.c.Count(perf.KInterp, 64)
		fd.composeChroma(cand, p, cpred[:], px, py)
	}
	fd.commit(cand, mbx, local)
	return nil
}

// reconstructIntra rebuilds an intra macroblock.
func (fd *frameDecoder) reconstructIntra(cand *mbCand, mbx, local, px, py int) error {
	reconY := lumaPlane(fd.recon)
	if cand.intra4 {
		if err := fd.reconstructIntra4Luma(cand, px, py); err != nil {
			return err
		}
	} else {
		if !intraAvailClipped(cand.lumaMode, px, py, MBSize, reconY, fd.sliceTopPx()) {
			return fmt.Errorf("intra mode %v unavailable at (%d,%d)", cand.lumaMode, px, py)
		}
		var pred [MBSize * MBSize]uint8
		predict.PredictClipped(pred[:], reconY, px, py, MBSize, cand.lumaMode, py > fd.sliceTopPx(), px > 0)
		fd.c.Count(perf.KIntra, MBSize*MBSize)
		fd.composeLuma(cand, pred[:], px, py)
	}

	var cpred [64]uint8
	for p := 0; p < 2; p++ {
		cp := chromaPlane(fd.recon, p)
		if !intraAvailClipped(cand.chromaMode, px/2, py/2, 8, cp, fd.sliceTopPx()/2) {
			return fmt.Errorf("chroma mode %v unavailable at (%d,%d)", cand.chromaMode, px/2, py/2)
		}
		predict.PredictClipped(cpred[:], cp, px/2, py/2, 8, cand.chromaMode, py/2 > fd.sliceTopPx()/2, px > 0)
		fd.c.Count(perf.KIntra, 64)
		fd.composeChroma(cand, p, cpred[:], px, py)
	}
	fd.commit(cand, mbx, local)
	return nil
}

// reconstructIntra4Luma rebuilds the luma of an intra4 macroblock
// block by block, predicting each 4×4 block from the samples
// reconstructed before it — the exact mirror of buildIntra4Cand.
func (fd *frameDecoder) reconstructIntra4Luma(cand *mbCand, px, py int) error {
	reconY := lumaPlane(fd.recon)
	var pred [16]uint8
	var rblk [16]int32
	for b := 0; b < 16; b++ {
		ox, oy := block4Offset(b)
		m := cand.luma4Modes[b]
		if !intra4Avail(m, px, py, ox, oy, fd.sliceTopPx()) {
			return fmt.Errorf("intra4 mode %v unavailable at block %d of (%d,%d)", m, b, px, py)
		}
		if err := intra4PredictBlock(pred[:], m, reconY, cand, px, py, ox, oy, fd.sliceTopPx()); err != nil {
			return err
		}
		fd.c.Count(perf.KIntra, 16)
		for i := range rblk {
			rblk[i] = 0
		}
		if cand.lumaLevels[b] != nil {
			reconstructBlockFromLevels(cand.lumaLevels[b], rblk[:], 4, cand.qp, fd.c)
		}
		cand.composeBlock4(ox, oy, pred[:], rblk[:])
	}
	return nil
}

// composeLuma reconstructs the luma samples of the MB from prediction
// plus decoded residual.
func (fd *frameDecoder) composeLuma(cand *mbCand, pred []uint8, px, py int) {
	var reconRes [MBSize * MBSize]int32
	if cand.tx8 {
		var rblk [64]int32
		for q := 0; q < 4; q++ {
			if cand.lumaLevels[q] == nil {
				continue
			}
			reconstructBlockFromLevels(cand.lumaLevels[q], rblk[:], 8, cand.qp, fd.c)
			ox, oy := block8Offset(q)
			scatterBlock(reconRes[:], MBSize, ox, oy, 8, rblk[:])
		}
	} else {
		var rblk [16]int32
		for b := 0; b < 16; b++ {
			if cand.lumaLevels[b] == nil {
				continue
			}
			reconstructBlockFromLevels(cand.lumaLevels[b], rblk[:], 4, cand.qp, fd.c)
			ox, oy := block4Offset(b)
			scatterBlock(reconRes[:], MBSize, ox, oy, 4, rblk[:])
		}
	}
	composeRecon(cand.lumaRecon[:], pred, reconRes[:], MBSize*MBSize)
}

// composeChroma reconstructs one chroma plane of the MB.
func (fd *frameDecoder) composeChroma(cand *mbCand, p int, pred []uint8, px, py int) {
	var reconRes [64]int32
	var rblk [16]int32
	for b := 0; b < 4; b++ {
		if cand.chromaLevels[p][b] == nil {
			continue
		}
		reconstructBlockFromLevels(cand.chromaLevels[p][b], rblk[:], 4, cand.qp, fd.c)
		ox, oy := (b%2)*4, (b/2)*4
		scatterBlock(reconRes[:], 8, ox, oy, 4, rblk[:])
	}
	composeRecon(cand.chromaRecon[p][:], pred, reconRes[:], 64)
}

// commit writes the reconstructed MB into the frame, grid, and QP
// grid state. local is the slice-local macroblock row.
func (fd *frameDecoder) commit(cand *mbCand, mbx, local int) {
	cand.commit(fd.recon, fd.grid, mbx, fd.rowStart, local)
	fd.qpGrid[(fd.rowStart+local)*fd.mbW+mbx] = cand.qp
	fd.c.MBTotal++
}
