package codec

import (
	"vbench/internal/codec/transform"
	"vbench/internal/perf"
	"vbench/internal/video"
)

// In-loop deblocking filter. Block-transform codecs show step
// artifacts at block boundaries at moderate-to-high QP; the filter
// smooths boundary samples when the discontinuity is small enough to
// be a coding artifact rather than a real edge. It runs identically in
// the encoder's reconstruction loop and the decoder, so filtered
// frames remain bit-identical references.
//
// The normative filter (docs/FORMAT.md) is one pass over the frame:
// every vertical edge of the 8-pixel grid, then every horizontal
// edge. The coder runs it one macroblock row at a time instead, one
// row behind reconstruction, and lands on the same samples:
//
//   - An edge reads two samples on each side and writes the nearest
//     one, so edges 8 pixels apart never touch each other's samples:
//     vertical edges are mutually independent, and so are horizontal
//     ones. The only order that matters is "every vertical edge
//     before any horizontal edge whose samples it writes".
//   - Unit r (deblockRow) filters the vertical edges of macroblock
//     row r, then its horizontal edges: the luma edge at 16r+8 and
//     the edges on its top boundary, which read the bottom two lines
//     of row r−1. Running the units of a slice in row order therefore
//     keeps the vertical-before-horizontal order.
//   - Intra prediction of row r+1 reads the unfiltered bottom line of
//     row r, so unit r runs once row r+1 is coded (deblockAfter);
//     motion search reads only finished reference frames.
//   - Slices never predict across their top row, so a slice runs
//     independently of its neighbours, and only its top boundary (the
//     seam with the slice above) waits for the frame tail
//     (deblockSeams).

// deblockThresholds derives the filter thresholds from a quantizer:
// alpha bounds the cross-edge step, beta bounds same-side gradients,
// and tc clamps the correction.
func deblockThresholds(qp int) (alpha, beta, tc int) {
	step := int(transform.QStepQ6(qp)) // Q6
	alpha = step >> 6
	alpha += step >> 7 // 1.5 × qstep
	if alpha < 2 {
		alpha = 2
	}
	if alpha > 60 {
		alpha = 60
	}
	beta = alpha/4 + 1
	tc = alpha/6 + 1
	return alpha, beta, tc
}

// edgeThr is one quantizer's filter thresholds, held as the largest
// step each bound lets through (alpha−1, beta−1) and the clamp tc.
type edgeThr struct{ maxStep, maxGrad, tc int }

// edgeThrByQP tabulates deblockThresholds for every legal QP.
var edgeThrByQP = func() (t [transform.MaxQP + 1]edgeThr) {
	for qp := range t {
		alpha, beta, tc := deblockThresholds(qp)
		t[qp] = edgeThr{alpha - 1, beta - 1, tc}
	}
	return t
}()

// thrBetween returns the thresholds of an edge between macroblocks
// coded at qa and qb. The pair is constant along a macroblock edge
// segment, so the row kernel looks it up once per segment.
func thrBetween(qa, qb int) edgeThr { return edgeThrByQP[(qa+qb+1)/2] }

// deblockRow filters unit r of a padded frame: the vertical edges of
// macroblock row r in all three planes, the luma horizontal edge at
// 16r+8 and, when top is set (never for row 0), the horizontal edges
// on row r's top boundary. qpGrid holds the per-macroblock quantizers
// (wMB wide).
//
//vbench:noalloc
func deblockRow(f *video.Frame, qpGrid []int, wMB, r int, top bool) {
	qps := qpGrid[r*wMB : (r+1)*wMB]
	w, cw := f.Width, f.ChromaWidth()
	// Luma: the 8-pixel grid, two vertical edges per macroblock.
	deblockVertical(f.Y, w, r*MBSize, MBSize, qps)
	deblockHorizontal(f.Y, w, r*MBSize+8, MBSize, qps, qps)
	// Chroma: macroblock-boundary edges only (the 8-pixel grid of the
	// half-resolution planes is the 16-pixel luma boundary).
	deblockVertical(f.Cb, cw, r*MBSize/2, MBSize/2, qps)
	deblockVertical(f.Cr, cw, r*MBSize/2, MBSize/2, qps)
	if top {
		deblockTop(f, qpGrid, wMB, r)
	}
}

// deblockTop filters the horizontal edges on macroblock row r's top
// boundary, between rows r−1 and r, in all three planes.
//
//vbench:noalloc
func deblockTop(f *video.Frame, qpGrid []int, wMB, r int) {
	above := qpGrid[(r-1)*wMB : r*wMB]
	qps := qpGrid[r*wMB : (r+1)*wMB]
	w, cw := f.Width, f.ChromaWidth()
	deblockHorizontal(f.Y, w, r*MBSize, MBSize, above, qps)
	deblockHorizontal(f.Cb, cw, r*MBSize/2, MBSize/2, above, qps)
	deblockHorizontal(f.Cr, cw, r*MBSize/2, MBSize/2, above, qps)
}

// deblockVertical filters the vertical edges (every 8 pixels, the
// first excluded) of the n plane lines from y0, a macroblock row of a
// plane whose macroblocks are n pixels square; qps are that row's
// quantizers.
//
//vbench:noalloc
func deblockVertical(pix []uint8, w, y0, n int, qps []int) {
	rows := pix[y0*w : (y0+n)*w]
	for x := 8; x < w; x += 8 {
		t := thrBetween(qps[(x-1)/n], qps[x/n])
		for i := x; i < len(rows); i += w {
			s := rows[i-2 : i+2] // p1 p0 | q0 q1
			p0, q0 := int(s[1]), int(s[2])
			d := edgeDelta(int(s[0]), p0, q0, int(s[3]), t)
			s[1] = clip255i(p0 + d)
			s[2] = clip255i(q0 - d)
		}
	}
}

// deblockHorizontal filters the horizontal edge on plane line y, one
// n-pixel macroblock segment at a time; above and below are the
// quantizers of the macroblock rows on either side of it.
//
//vbench:noalloc
func deblockHorizontal(pix []uint8, w, y, n int, above, below []int) {
	lines := pix[(y-2)*w : (y+2)*w]
	p1s := lines[:w]
	p0s := lines[w : 2*w]
	q0s := lines[2*w : 3*w]
	q1s := lines[3*w : 4*w]
	for m := range below {
		t := thrBetween(above[m], below[m])
		p1 := p1s[m*n : (m+1)*n]
		p0 := p0s[m*n : (m+1)*n][:len(p1)]
		q0 := q0s[m*n : (m+1)*n][:len(p1)]
		q1 := q1s[m*n : (m+1)*n][:len(p1)]
		for i := range p1 {
			a, b := int(p0[i]), int(q0[i])
			d := edgeDelta(int(p1[i]), a, b, int(q1[i]), t)
			p0[i] = clip255i(a + d)
			q0[i] = clip255i(b - d)
		}
	}
}

// edgeDelta returns the correction the weak filter applies across the
// edge p1 p0 | q0 q1 (p0 gains it, q0 loses it), or 0 when the step is
// too large or the sides too busy to be a coding artifact. It is
// branch-free, since whether an edge filters depends on the samples,
// and small enough to inline into the row kernel's sample loops:
// |d| ≤ m holds when d+m and m−d are both non-negative, so the sign
// bits of the six terms make the mask.
func edgeDelta(p1, p0, q0, q1 int, t edgeThr) int {
	dp, d1, d2 := p0-q0, p1-p0, q1-q0
	out := (t.maxStep + dp) | (t.maxStep - dp) | (t.maxGrad + d1) | (t.maxGrad - d1) | (t.maxGrad + d2) | (t.maxGrad - d2)
	return min(max((4*(q0-p0)+p1-q1+4)>>3, -t.tc), t.tc) &^ (out >> 63)
}

func clip255i(v int) uint8 { return uint8(min(max(v, 0), 255)) }

// deblockAfter runs the units that coding slice-local row local of a
// slice (rows rows from rowStart) releases: unit local−1, whose bottom
// line row local's intra prediction has now read, and after the
// slice's last row that row's own unit. A slice's first unit leaves
// its top boundary to deblockSeams.
//
//vbench:noalloc
func deblockAfter(f *video.Frame, qpGrid []int, wMB, rowStart, rows, local int) {
	if local > 0 {
		deblockRow(f, qpGrid, wMB, rowStart+local-1, local > 1)
	}
	if local == rows-1 {
		deblockRow(f, qpGrid, wMB, rowStart+local, local > 0)
	}
}

// deblockSeams finishes a frame whose slices (row bounds) have all run
// their units: it filters the seams between slices and bills the
// frame's deblocking work, once per plane, as the normative pass
// counts it.
func deblockSeams(f *video.Frame, qpGrid []int, wMB int, bounds []int, c *perf.Counters) {
	for _, r := range bounds[1 : len(bounds)-1] {
		deblockTop(f, qpGrid, wMB, r)
	}
	c.Count(perf.KDeblock, edgeOps(f.Width, f.Height))
	c.Count(perf.KDeblock, edgeOps(f.ChromaWidth(), f.ChromaHeight()))
	c.Count(perf.KDeblock, edgeOps(f.ChromaWidth(), f.ChromaHeight()))
}

// edgeOps is the nominal work of deblocking a w×h plane: four taps
// per sample pair across every edge of the 8-pixel grid.
func edgeOps(w, h int) int64 {
	return 4 * int64((w-1)/8*h+(h-1)/8*w)
}
