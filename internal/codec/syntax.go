package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vbench/internal/codec/motion"
	"vbench/internal/codec/predict"
	"vbench/internal/video"
)

// Bitstream container layout ("VBC1"):
//
//	sequence header (fixed, big-endian):
//	  magic   [4]byte "VBC1"
//	  width   uint16  (display luma width)
//	  height  uint16  (display luma height)
//	  fps     uint32  (framerate × 1000)
//	  frames  uint16
//	  flags   uint8   (bit0 arith entropy, bit1 tx8 allowed,
//	                   bit2 deblock, bit3 adaptive quant, bit4 rich
//	                   contexts, bit5 sharp interpolation, bit6 4x4
//	                   intra allowed)
//	  refs    uint8   (reference frame count)
//	  slices  uint8   (independently coded horizontal bands per frame)
//	per frame:
//	  type    uint8   (0 = I, 1 = P)
//	  baseQP  uint8
//	  per slice (top to bottom):
//	    size    uint32  (payload bytes)
//	    payload []byte  (macroblock layer in the selected entropy coder)

const magic = "VBC1"

// MBSize is the macroblock dimension in luma pixels.
const MBSize = 16

// Frame types.
const (
	frameI = 0
	frameP = 1
)

// seqHeader carries the decoder-relevant sequence parameters.
type seqHeader struct {
	width, height int // display dimensions
	fpsMilli      uint32
	frames        int
	entropy       EntropyKind
	tx8Allowed    bool
	deblock       bool
	adaptiveQuant bool
	richContexts  bool
	sharpInterp   bool
	intra4Allowed bool
	refs          int
	slices        int
}

func (h *seqHeader) paddedWidth() int  { return ceilMB(h.width) }
func (h *seqHeader) paddedHeight() int { return ceilMB(h.height) }

func ceilMB(v int) int { return (v + MBSize - 1) / MBSize * MBSize }

func (h *seqHeader) marshal() []byte {
	buf := make([]byte, 0, 16)
	buf = append(buf, magic...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.width))
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.height))
	buf = binary.BigEndian.AppendUint32(buf, h.fpsMilli)
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.frames))
	var flags uint8
	if h.entropy == EntropyArith {
		flags |= 1
	}
	if h.tx8Allowed {
		flags |= 2
	}
	if h.deblock {
		flags |= 4
	}
	if h.adaptiveQuant {
		flags |= 8
	}
	if h.richContexts {
		flags |= 16
	}
	if h.sharpInterp {
		flags |= 32
	}
	if h.intra4Allowed {
		flags |= 64
	}
	buf = append(buf, flags, uint8(h.refs), uint8(h.slices))
	return buf
}

func parseSeqHeader(data []byte) (*seqHeader, int, error) {
	const hdrLen = 4 + 2 + 2 + 4 + 2 + 1 + 1 + 1
	if len(data) < hdrLen {
		return nil, 0, errors.New("codec: truncated sequence header")
	}
	if string(data[:4]) != magic {
		return nil, 0, fmt.Errorf("codec: bad magic %q", data[:4])
	}
	h := &seqHeader{
		width:    int(binary.BigEndian.Uint16(data[4:6])),
		height:   int(binary.BigEndian.Uint16(data[6:8])),
		fpsMilli: binary.BigEndian.Uint32(data[8:12]),
		frames:   int(binary.BigEndian.Uint16(data[12:14])),
	}
	flags := data[14]
	if flags&1 != 0 {
		h.entropy = EntropyArith
	}
	h.tx8Allowed = flags&2 != 0
	h.deblock = flags&4 != 0
	h.adaptiveQuant = flags&8 != 0
	h.richContexts = flags&16 != 0
	h.sharpInterp = flags&32 != 0
	h.intra4Allowed = flags&64 != 0
	h.refs = int(data[15])
	h.slices = int(data[16])
	if h.width <= 0 || h.height <= 0 {
		return nil, 0, errors.New("codec: invalid dimensions in header")
	}
	if h.width > maxDimension || h.height > maxDimension {
		return nil, 0, fmt.Errorf("codec: dimensions %dx%d exceed the %d limit", h.width, h.height, maxDimension)
	}
	if h.width%2 != 0 || h.height%2 != 0 {
		return nil, 0, fmt.Errorf("codec: odd dimensions %dx%d", h.width, h.height)
	}
	if h.refs < 1 || h.refs > 8 {
		return nil, 0, fmt.Errorf("codec: invalid reference count %d", h.refs)
	}
	if h.slices < 1 || h.slices > 64 {
		return nil, 0, fmt.Errorf("codec: invalid slice count %d", h.slices)
	}
	if h.slices > h.paddedHeight()/MBSize {
		return nil, 0, fmt.Errorf("codec: %d slices for %d macroblock rows", h.slices, h.paddedHeight()/MBSize)
	}
	return h, hdrLen, nil
}

// maxDimension bounds decoded frame sizes so a corrupt header cannot
// trigger pathological allocations (8K video is the practical
// ceiling).
const maxDimension = 8192

// MB coding modes.
const (
	mbSkip = iota
	mbInter
	mbIntra
)

// mbInfo is the per-macroblock state needed for spatial prediction of
// later macroblocks (motion-vector prediction), maintained identically
// by encoder and decoder.
type mbInfo struct {
	mode int
	mv   motion.MV
	ref  int
	qp   int
}

// mbGrid holds per-MB info for the frame being coded.
type mbGrid struct {
	w, h int // in macroblocks
	info []mbInfo
}

func newMBGrid(wMB, hMB int) *mbGrid {
	return &mbGrid{w: wMB, h: hMB, info: make([]mbInfo, wMB*hMB)}
}

func (g *mbGrid) at(x, y int) *mbInfo { return &g.info[y*g.w+x] }

// neighborMV returns the motion vector contribution of the MB at
// (x, y): zero if out of frame or not inter-coded.
func (g *mbGrid) neighborMV(x, y int) motion.MV {
	if x < 0 || y < 0 || x >= g.w || y >= g.h {
		return motion.MV{}
	}
	in := g.at(x, y)
	if in.mode == mbIntra {
		return motion.MV{}
	}
	return in.mv
}

// predMV computes the median motion-vector predictor for MB (x, y)
// from the left, top, and top-right neighbours (top-left substitutes
// when top-right is unavailable, as in H.264).
func (g *mbGrid) predMV(x, y int) motion.MV {
	left := g.neighborMV(x-1, y)
	top := g.neighborMV(x, y-1)
	var diag motion.MV
	if x+1 < g.w && y > 0 {
		diag = g.neighborMV(x+1, y-1)
	} else {
		diag = g.neighborMV(x-1, y-1)
	}
	return motion.MedianMV(left, top, diag)
}

// mbCand is a fully evaluated macroblock coding candidate: the syntax
// elements to serialize plus the reconstruction they imply.
// lumaModeIntra4 is the coded luma-mode value announcing per-4×4
// intra prediction (the values below it are the 16×16 predict.Modes).
const lumaModeIntra4 = uint32(predict.NumModes)

type mbCand struct {
	mode       int
	mv         motion.MV
	ref        int
	lumaMode   predict.Mode
	chromaMode predict.Mode
	intra4     bool
	luma4Modes [16]predict.Mode
	tx8        bool
	qp         int
	qpDelta    int

	// Quantized levels in zigzag order, referencing slices of the
	// owning encoder/decoder's levelArena. Luma has 4 blocks of 64
	// when tx8 (entries 4..15 unused), else 16 blocks of 16; chroma
	// always 4 blocks of 16 per plane. nil slices mean uncoded
	// (all-zero) blocks. Fixed-size arrays so recycling a candidate
	// allocates nothing.
	lumaLevels   [16][]int32
	chromaLevels [2][4][]int32

	// Reconstructed samples.
	lumaRecon   [MBSize * MBSize]uint8
	chromaRecon [2][64]uint8
}

// lumaQuadCoded reports whether any block in luma quadrant q (0..3)
// has coefficients.
func (c *mbCand) lumaQuadCoded(q int) bool {
	if c.tx8 {
		return c.lumaLevels[q] != nil
	}
	for _, b := range quadBlocks4[q] {
		if c.lumaLevels[b] != nil {
			return true
		}
	}
	return false
}

// chromaPlaneCoded reports whether chroma plane p has coefficients.
func (c *mbCand) chromaPlaneCoded(p int) bool {
	for _, blk := range c.chromaLevels[p] {
		if blk != nil {
			return true
		}
	}
	return false
}

// commit writes the candidate's reconstruction into recon and its
// mode, vector, reference and QP into the slice grid: the state later
// macroblocks predict from, the same on both sides of the codec.
// rowStart is the slice's first macroblock row; local is the row
// within the slice.
func (c *mbCand) commit(recon *video.Frame, grid *mbGrid, mbx, rowStart, local int) {
	px, py := mbx*MBSize, (rowStart+local)*MBSize
	w := recon.Width
	for y := 0; y < MBSize; y++ {
		copy(recon.Y[(py+y)*w+px:(py+y)*w+px+MBSize], c.lumaRecon[y*MBSize:(y+1)*MBSize])
	}
	cw := recon.ChromaWidth()
	for p := 0; p < 2; p++ {
		plane := recon.Cb
		if p == 1 {
			plane = recon.Cr
		}
		for y := 0; y < 8; y++ {
			copy(plane[(py/2+y)*cw+px/2:(py/2+y)*cw+px/2+8], c.chromaRecon[p][y*8:(y+1)*8])
		}
	}
	info := grid.at(mbx, local)
	info.mode = c.mode
	info.mv = c.mv
	info.ref = c.ref
	info.qp = c.qp
}

// quadBlocks4 lists the 4×4 block indices (raster order within the MB,
// 4 blocks per row) belonging to each 8×8 quadrant.
var quadBlocks4 = [4][4]int{
	{0, 1, 4, 5},
	{2, 3, 6, 7},
	{8, 9, 12, 13},
	{10, 11, 14, 15},
}

// block4Offset returns the pixel offset of 4×4 luma block b within the
// macroblock.
func block4Offset(b int) (x, y int) { return (b % 4) * 4, (b / 4) * 4 }

// block8Offset returns the pixel offset of 8×8 luma block q within the
// macroblock.
func block8Offset(q int) (x, y int) { return (q % 2) * 8, (q / 2) * 8 }

// padFrame returns a copy of f extended to macroblock-aligned
// dimensions by edge replication. If the frame is already aligned the
// original is returned unchanged.
func padFrame(f *video.Frame) *video.Frame {
	pw, ph := ceilMB(f.Width), ceilMB(f.Height)
	if pw == f.Width && ph == f.Height {
		return f
	}
	g := video.NewFrame(pw, ph)
	copyPad(g.Y, pw, ph, f.Y, f.Width, f.Height)
	copyPad(g.Cb, pw/2, ph/2, f.Cb, f.Width/2, f.Height/2)
	copyPad(g.Cr, pw/2, ph/2, f.Cr, f.Width/2, f.Height/2)
	return g
}

func copyPad(dst []uint8, dw, dh int, src []uint8, sw, sh int) {
	for y := 0; y < dh; y++ {
		sy := y
		if sy >= sh {
			sy = sh - 1
		}
		for x := 0; x < dw; x++ {
			sx := x
			if sx >= sw {
				sx = sw - 1
			}
			dst[y*dw+x] = src[sy*sw+sx]
		}
	}
}

// cropFrame returns a copy of f reduced to width×height (top-left
// corner). If no cropping is needed the original is returned.
func cropFrame(f *video.Frame, width, height int) *video.Frame {
	if f.Width == width && f.Height == height {
		return f
	}
	g := video.NewFrame(width, height)
	for y := 0; y < height; y++ {
		copy(g.Y[y*width:(y+1)*width], f.Y[y*f.Width:y*f.Width+width])
	}
	cw, ch := width/2, height/2
	for y := 0; y < ch; y++ {
		copy(g.Cb[y*cw:(y+1)*cw], f.Cb[y*f.ChromaWidth():y*f.ChromaWidth()+cw])
		copy(g.Cr[y*cw:(y+1)*cw], f.Cr[y*f.ChromaWidth():y*f.ChromaWidth()+cw])
	}
	return g
}
