package codec

import (
	"errors"

	"vbench/internal/codec/kern"
	"vbench/internal/codec/transform"
	"vbench/internal/perf"
)

// coefBudget caps coefficient magnitudes so malformed streams cannot
// blow up reconstruction arithmetic.
const maxLevel = 1 << 16

// quantizeBlock runs one residual block (n×n, raster order) through
// the forward transform, quantization, optional trellis-style level
// refinement, and the reconstruction path (dequantize + inverse
// transform). It returns the zigzag levels (nil if the block
// quantized to zero) and writes the reconstructed residual into
// reconRes (raster order). The returned slice is arena storage from
// la, valid until the owner's next reset (nil la falls back to the
// heap).
func quantizeBlock(res []int32, reconRes []int32, n, qp int, dz transform.DeadZone, trellis bool, la *levelArena, c *perf.Counters) []int32 {
	nn := n * n
	var coeffs [64]int32
	transform.Forward(res, coeffs[:nn], n)
	c.Count(perf.KDCT, int64(4*n*nn))

	scan := transform.ZigZag4[:]
	if n == 8 {
		scan = transform.ZigZag8[:]
	}
	// Fused reciprocal quantize + zigzag gather; produces exactly
	// transform.Quantize followed by transform.Scan (locked together by
	// TestQuantScanMatchesReference). Counter accounting is unchanged.
	var zz [64]int32
	nonzero := kern.QuantScan(coeffs[:nn], zz[:nn], scan, qp, int64(dz))
	c.Count(perf.KQuant, int64(nn))
	c.DataDepBranches += int64(nn)

	if trellis {
		trellisRefine(zz[:nn], coeffs[:nn], n, qp, c)
		// The refinement only ever zeroes levels, so a coded block can
		// become empty; recheck before committing to the coded path.
		nonzero = false
		for _, v := range zz[:nn] {
			if v != 0 {
				nonzero = true
				break
			}
		}
	}
	if !nonzero {
		for i := range reconRes[:nn] {
			reconRes[i] = 0
		}
		return nil
	}

	// Reconstruction path shared bit-for-bit with the decoder.
	reconstructBlockFromLevels(zz[:nn], reconRes, n, qp, c)

	out := la.take(nn)
	copy(out, zz[:nn])
	return out
}

// trellisRefine is the RD-optimized quantization analogue: trailing
// ±1 levels that sit deep in the zigzag tail cost more rate than the
// distortion they remove, so they are zeroed when the deadzone test
// says the coefficient was marginal. The rule is deterministic and
// cheap, mirroring x264's --trellis net effect (slightly fewer bits at
// equal quality).
func trellisRefine(zz []int32, coeffs []int32, n, qp int, c *perf.Counters) {
	step := int64(transform.QStepQ6(qp))
	nn := n * n
	// Find the last significant coefficient.
	last := -1
	for i := nn - 1; i >= 0; i-- {
		if zz[i] != 0 {
			last = i
			break
		}
	}
	if last < 0 {
		return
	}
	// Walk the tail: isolated ±1 levels whose true coefficient
	// magnitude is below 0.6·qstep are dropped.
	zeroRun := 0
	var scan []int
	if n == 4 {
		scan = transform.ZigZag4[:]
	} else {
		scan = transform.ZigZag8[:]
	}
	for i := last; i > nn/4; i-- {
		if zz[i] == 0 {
			zeroRun++
			continue
		}
		if (zz[i] == 1 || zz[i] == -1) && zeroRun >= 2 {
			mag := int64(coeffs[scan[i]])
			if mag < 0 {
				mag = -mag
			}
			// mag is Q3; step is Q6.
			if mag*8*10 < step*6 {
				zz[i] = 0
				zeroRun++
				continue
			}
		}
		zeroRun = 0
	}
	c.Count(perf.KQuant, int64(nn))
	c.DataDepBranches += int64(last + 1)
}

// writeResidualBlock serializes the nonzero zigzag levels of a coded
// block as (run, level, sign, last) tuples.
func writeResidualBlock(w symWriter, zz []int32, rich bool) {
	// Collect nonzero positions.
	var positions [64]int
	np := 0
	for i, v := range zz {
		if v != 0 {
			positions[np] = i
			np++
		}
	}
	prev := -1
	for i := 0; i < np; i++ {
		pos := positions[i]
		run := pos - prev - 1
		v := zz[pos]
		mag := v
		sign := 0
		if v < 0 {
			mag = -v
			sign = 1
		}
		w.UE(runCtxSet(rich, i), uint32(run))
		w.UE(levelCtxSet(rich, i), uint32(mag-1))
		w.Bypass(sign)
		last := 0
		if i == np-1 {
			last = 1
		}
		w.Bit(ctxLast, last)
		prev = pos
	}
}

// readResidualBlock parses a coded block of nn coefficients into zz
// (zigzag order).
func readResidualBlock(r symReader, zz []int32, rich bool) error {
	for i := range zz {
		zz[i] = 0
	}
	pos := -1
	for i := 0; ; i++ {
		run, err := r.UE(runCtxSet(rich, i))
		if err != nil {
			return err
		}
		mag, err := r.UE(levelCtxSet(rich, i))
		if err != nil {
			return err
		}
		sign, err := r.Bypass()
		if err != nil {
			return err
		}
		pos += int(run) + 1
		if pos >= len(zz) {
			return errors.New("codec: residual run past end of block")
		}
		if mag+1 > maxLevel {
			return errors.New("codec: residual level out of range")
		}
		level := int32(mag + 1)
		if sign == 1 {
			level = -level
		}
		zz[pos] = level
		last, err := r.Bit(ctxLast)
		if err != nil {
			return err
		}
		if last == 1 {
			return nil
		}
	}
}

// residualBits estimates the serialized size in bits of a coded block,
// for rate-distortion decisions, without touching entropy state.
func residualBits(zz []int32) int {
	bitsN := 0
	prev := -1
	for pos, v := range zz {
		if v == 0 {
			continue
		}
		run := pos - prev - 1
		mag := v
		if v < 0 {
			mag = -v
		}
		bitsN += ueBitsFast(uint32(run)) + ueBitsFast(uint32(mag-1)) + 2
		prev = pos
	}
	return bitsN
}

func ueBitsFast(v uint32) int {
	n := 0
	x := v + 1
	for x > 0 {
		n++
		x >>= 1
	}
	return 2*n - 1
}

// reconstructBlockFromLevels runs the decoder-side reconstruction of a
// coded block: unscan, dequantize, inverse transform.
func reconstructBlockFromLevels(zz []int32, reconRes []int32, n, qp int, c *perf.Counters) {
	nn := n * n
	var levels, deq [64]int32
	transform.Unscan(zz, levels[:nn], n)
	transform.Dequantize(levels[:nn], deq[:nn], qp)
	transform.Inverse(deq[:nn], reconRes[:nn], n)
	c.Count(perf.KQuant, int64(nn))
	c.Count(perf.KDCT, int64(4*n*nn))
}
