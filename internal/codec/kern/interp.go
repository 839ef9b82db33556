package kern

import "encoding/binary"

// The bilinear kernels operate on the clamp-free interior case: the
// caller guarantees that all four taps of every output sample lie
// inside the reference plane, i.e. rows 0..bh and columns 0..bw
// (inclusive) are addressable from ref. For blocks whose taps reach
// past the plane edge, internal/codec/motion passes an edge-emulated
// copy of the (bw+1)×(bh+1) tap window instead of the plane.
//
// Lane safety: weights are the quarter-pel (Σw = 16, round 8, shift 4)
// or eighth-pel (Σw = 64, round 32, shift 6) bilinear sets, so a lane
// accumulates at most 255·64 + 32 = 16352 < 2¹⁶ and the shifted result
// is an exact sample value ≤ 255.

// bilerpLanes interpolates four 16-bit lanes: (a·w00 + b·w10 + c·w01 +
// d·w11 + round) >> shift, masked back to sample range. rlanes holds
// the rounding constant replicated per lane.
func bilerpLanes(a, b, c, d, w00, w10, w01, w11, rlanes uint64, shift uint) uint64 {
	return (a*w00 + b*w10 + c*w01 + d*w11 + rlanes) >> shift & laneEven
}

// PredictBilinear writes the bw×bh bilinear interpolation of ref into
// dst. ref points at the top-left integer tap (it must address bh+1
// rows of bw+1 samples with stride refStride); dst uses dstStride.
// w00..w11 are the bilinear weights, with rounding term round and
// right shift.
//
//vbench:noalloc
func PredictBilinear(dst []uint8, dstStride int, ref []uint8, refStride int, w00, w10, w01, w11, round int, shift uint, bw, bh int) {
	u00, u10, u01, u11 := uint64(w00), uint64(w10), uint64(w01), uint64(w11)
	rlanes := uint64(round) * laneOnes
	for y := 0; y < bh; y++ {
		r0 := ref[y*refStride:]
		r1 := ref[(y+1)*refStride:]
		d := dst[y*dstStride:]
		x := 0
		for ; x+8 <= bw; x += 8 {
			a := binary.LittleEndian.Uint64(r0[x:])
			b := binary.LittleEndian.Uint64(r0[x+1:])
			c := binary.LittleEndian.Uint64(r1[x:])
			e := binary.LittleEndian.Uint64(r1[x+1:])
			pe := bilerpLanes(a&laneEven, b&laneEven, c&laneEven, e&laneEven, u00, u10, u01, u11, rlanes, shift)
			po := bilerpLanes(a>>8&laneEven, b>>8&laneEven, c>>8&laneEven, e>>8&laneEven, u00, u10, u01, u11, rlanes, shift)
			binary.LittleEndian.PutUint64(d[x:], pe|po<<8)
		}
		for ; x < bw; x++ {
			a := int(r0[x])
			b := int(r0[x+1])
			c := int(r1[x])
			e := int(r1[x+1])
			d[x] = uint8((a*w00 + b*w10 + c*w01 + e*w11 + round) >> shift)
		}
	}
}

// BilinearSADThresh fuses bilinear interpolation with SAD against the
// current block, with the same deterministic per-row early termination
// as SADThresh. cur points at the top-left of the current block
// (stride curStride); ref points at the top-left integer tap of the
// interior interpolation window (stride refStride). Weight, round,
// and shift parameters follow PredictBilinear. The interpolated
// samples are never materialized, saving a store/reload round trip
// per sub-pel motion candidate.
//
//vbench:noalloc
func BilinearSADThresh(cur []uint8, curStride int, ref []uint8, refStride int, w00, w10, w01, w11, round int, shift uint, bw, bh int, thresh int64) (sad int64, early bool) {
	if thresh <= 0 {
		return 0, true
	}
	u00, u10, u01, u11 := uint64(w00), uint64(w10), uint64(w01), uint64(w11)
	rlanes := uint64(round) * laneOnes
	var sum int64
	for y := 0; y < bh; y++ {
		r0 := ref[y*refStride:]
		r1 := ref[(y+1)*refStride:]
		cr := cur[y*curStride:]
		var acc uint64
		chunks := 0
		x := 0
		for ; x+8 <= bw; x += 8 {
			a := binary.LittleEndian.Uint64(r0[x:])
			b := binary.LittleEndian.Uint64(r0[x+1:])
			c := binary.LittleEndian.Uint64(r1[x:])
			e := binary.LittleEndian.Uint64(r1[x+1:])
			pe := bilerpLanes(a&laneEven, b&laneEven, c&laneEven, e&laneEven, u00, u10, u01, u11, rlanes, shift)
			po := bilerpLanes(a>>8&laneEven, b>>8&laneEven, c>>8&laneEven, e>>8&laneEven, u00, u10, u01, u11, rlanes, shift)
			xc := binary.LittleEndian.Uint64(cr[x:])
			acc += absLanes(xc&laneEven, pe) + absLanes(xc>>8&laneEven, po)
			if chunks++; chunks == flushChunks {
				sum += laneSum(acc)
				acc, chunks = 0, 0
			}
		}
		sum += laneSum(acc)
		for ; x < bw; x++ {
			a := int(r0[x])
			b := int(r0[x+1])
			c := int(r1[x])
			e := int(r1[x+1])
			p := (a*w00 + b*w10 + c*w01 + e*w11 + round) >> shift
			d := int(cr[x]) - p
			if d < 0 {
				d = -d
			}
			sum += int64(d)
		}
		if sum >= thresh && y+1 < bh {
			return sum, true
		}
	}
	return sum, false
}
