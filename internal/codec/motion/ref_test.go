package motion

import "math"

// The scalar originals of the motion-compensation and SAD paths. They
// clamp every sample individually and are the normative references
// the product paths (interior kernels and edge-emulated windows) are
// cross-checked against.

// clampedSample returns the sample at (x, y) with edge replication.
func (p Plane) clampedSample(x, y int) uint8 {
	if x < 0 {
		x = 0
	} else if x >= p.W {
		x = p.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= p.H {
		y = p.H - 1
	}
	return p.Pix[y*p.W+x]
}

// sadClamped is the edge-replicating SAD slow path.
func sadClamped(cur Plane, cx, cy int, ref Plane, rx, ry int, bw, bh int) int64 {
	var sum int64
	for y := 0; y < bh; y++ {
		cRow := cur.Pix[(cy+y)*cur.W+cx:]
		for x := 0; x < bw; x++ {
			d := int(cRow[x]) - int(ref.clampedSample(rx+x, ry+y))
			if d < 0 {
				d = -d
			}
			sum += int64(d)
		}
	}
	return sum
}

// sadRef is the original all-scalar SAD.
func sadRef(cur Plane, cx, cy int, ref Plane, rx, ry int, bw, bh int) int64 {
	var sum int64
	fastPath := rx >= 0 && ry >= 0 && rx+bw <= ref.W && ry+bh <= ref.H
	if fastPath {
		for y := 0; y < bh; y++ {
			cRow := cur.Pix[(cy+y)*cur.W+cx:]
			rRow := ref.Pix[(ry+y)*ref.W+rx:]
			for x := 0; x < bw; x++ {
				d := int(cRow[x]) - int(rRow[x])
				if d < 0 {
					d = -d
				}
				sum += int64(d)
			}
		}
		return sum
	}
	return sadClamped(cur, cx, cy, ref, rx, ry, bw, bh)
}

// predictLumaRef is the original clamped scalar implementation of
// PredictLuma, the normative reference for all luma prediction paths.
func predictLumaRef(dst []uint8, ref Plane, bx, by int, mv MV, bw, bh int) {
	ix := bx + int(mv.X>>2)
	iy := by + int(mv.Y>>2)
	fx := int(mv.X & 3)
	fy := int(mv.Y & 3)
	if fx == 0 && fy == 0 {
		for y := 0; y < bh; y++ {
			for x := 0; x < bw; x++ {
				dst[y*bw+x] = ref.clampedSample(ix+x, iy+y)
			}
		}
		return
	}
	w00 := (4 - fx) * (4 - fy)
	w10 := fx * (4 - fy)
	w01 := (4 - fx) * fy
	w11 := fx * fy
	for y := 0; y < bh; y++ {
		for x := 0; x < bw; x++ {
			a := int(ref.clampedSample(ix+x, iy+y))
			b := int(ref.clampedSample(ix+x+1, iy+y))
			c := int(ref.clampedSample(ix+x, iy+y+1))
			d := int(ref.clampedSample(ix+x+1, iy+y+1))
			dst[y*bw+x] = uint8((a*w00 + b*w10 + c*w01 + d*w11 + 8) >> 4)
		}
	}
}

// predictChromaRef is the original clamped scalar implementation of
// PredictChroma, the normative reference for chroma prediction.
func predictChromaRef(dst []uint8, ref Plane, bx, by int, mv MV, bw, bh int) {
	ix := bx + int(mv.X>>3)
	iy := by + int(mv.Y>>3)
	fx := int(mv.X & 7)
	fy := int(mv.Y & 7)
	if fx == 0 && fy == 0 {
		for y := 0; y < bh; y++ {
			for x := 0; x < bw; x++ {
				dst[y*bw+x] = ref.clampedSample(ix+x, iy+y)
			}
		}
		return
	}
	w00 := (8 - fx) * (8 - fy)
	w10 := fx * (8 - fy)
	w01 := (8 - fx) * fy
	w11 := fx * fy
	for y := 0; y < bh; y++ {
		for x := 0; x < bw; x++ {
			a := int(ref.clampedSample(ix+x, iy+y))
			b := int(ref.clampedSample(ix+x+1, iy+y))
			c := int(ref.clampedSample(ix+x, iy+y+1))
			d := int(ref.clampedSample(ix+x+1, iy+y+1))
			dst[y*bw+x] = uint8((a*w00 + b*w10 + c*w01 + d*w11 + 32) >> 6)
		}
	}
}

// predictLumaSharpRef is the original per-tap clamped implementation
// of PredictLumaSharp.
func predictLumaSharpRef(dst []uint8, ref Plane, bx, by int, mv MV, bw, bh int) {
	ix := bx + int(mv.X>>2)
	iy := by + int(mv.Y>>2)
	fx := int(mv.X & 3)
	fy := int(mv.Y & 3)
	if fx == 0 && fy == 0 {
		for y := 0; y < bh; y++ {
			for x := 0; x < bw; x++ {
				dst[y*bw+x] = ref.clampedSample(ix+x, iy+y)
			}
		}
		return
	}
	wx := sharpTaps[fx]
	wy := sharpTaps[fy]
	// Horizontal pass over bh+3 rows (one above, two below), Q6.
	tmpH := bh + 3
	tmp := make([]int32, bw*tmpH)
	for y := 0; y < tmpH; y++ {
		sy := iy + y - 1
		for x := 0; x < bw; x++ {
			var s int
			for i := 0; i < 4; i++ {
				s += wx[i] * int(ref.clampedSample(ix+x-1+i, sy))
			}
			tmp[y*bw+x] = int32(s)
		}
	}
	// Vertical pass, Q12 → samples.
	for y := 0; y < bh; y++ {
		for x := 0; x < bw; x++ {
			var s int32
			for j := 0; j < 4; j++ {
				s += int32(wy[j]) * tmp[(y+j)*bw+x]
			}
			v := (s + 2048) >> 12
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			dst[y*bw+x] = uint8(v)
		}
	}
}

// sadSubpelRef is the original predict-then-difference scalar
// implementation.
func sadSubpelRef(cur Plane, cx, cy int, ref Plane, mv MV, bw, bh int, scratch []uint8) int64 {
	predictLumaRef(scratch, ref, cx, cy, mv, bw, bh)
	var sum int64
	for y := 0; y < bh; y++ {
		cRow := cur.Pix[(cy+y)*cur.W+cx:]
		pRow := scratch[y*bw:]
		for x := 0; x < bw; x++ {
			d := int(cRow[x]) - int(pRow[x])
			if d < 0 {
				d = -d
			}
			sum += int64(d)
		}
	}
	return sum
}

// sadSubpel computes the exact SAD of the current block against the
// interpolated reference at quarter-pel vector mv.
func sadSubpel(cur Plane, cx, cy int, ref Plane, mv MV, bw, bh int) int64 {
	sad, _ := sadSubpelThresh(cur, cx, cy, ref, mv, bw, bh, math.MaxInt64)
	return sad
}
