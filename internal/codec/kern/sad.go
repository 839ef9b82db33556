package kern

import "encoding/binary"

// flushChunks bounds how many chunks may accumulate into the per-lane
// SAD vector before a horizontal sum is forced. The binding constraint
// is laneSum, whose four-lane total must stay below 2¹⁶: an 8-byte
// chunk contributes at most 8·255 = 2040 across the lanes, so 24
// chunks top out at 48960 of the 65535 available. (The per-lane
// ceiling alone would allow 128 chunks of ≤510 each.) A 16×16 block
// is 32 chunks, flushed once mid-block.
const flushChunks = 24

// SAD returns the sum of absolute differences between two w×h pixel
// blocks. a and b point at the top-left sample of each block and are
// indexed with their own row strides. Both blocks must lie fully
// inside their backing slices (no edge clamping — callers pass an
// edge-emulated copy for blocks past the plane edge).
//
//vbench:noalloc
func SAD(a []uint8, aStride int, b []uint8, bStride int, w, h int) int64 {
	var sum int64
	var acc uint64
	chunks := 0
	for y := 0; y < h; y++ {
		ar := a[y*aStride : y*aStride+w]
		br := b[y*bStride : y*bStride+w]
		x := 0
		for ; x+8 <= w; x += 8 {
			xa := binary.LittleEndian.Uint64(ar[x:])
			xb := binary.LittleEndian.Uint64(br[x:])
			acc += absLanes(xa&laneEven, xb&laneEven) +
				absLanes(xa>>8&laneEven, xb>>8&laneEven)
			if chunks++; chunks == flushChunks {
				sum += laneSum(acc)
				acc, chunks = 0, 0
			}
		}
		if x+4 <= w {
			xa := uint64(binary.LittleEndian.Uint32(ar[x:]))
			xb := uint64(binary.LittleEndian.Uint32(br[x:]))
			acc += absLanes(xa&laneEven, xb&laneEven) +
				absLanes(xa>>8&laneEven, xb>>8&laneEven)
			x += 4
			if chunks++; chunks >= flushChunks {
				sum += laneSum(acc)
				acc, chunks = 0, 0
			}
		}
		for ; x < w; x++ {
			d := int(ar[x]) - int(br[x])
			if d < 0 {
				d = -d
			}
			sum += int64(d)
		}
	}
	return sum + laneSum(acc)
}

// SADThresh is SAD with deterministic early termination: after each
// row, if the running sum has reached thresh the scan aborts and the
// partial sum (≥ thresh) is returned with early=true. A false early
// flag means the returned value is the exact SAD. Abort depends only
// on the block contents and thresh, so results are identical across
// runs and platforms; callers that compare the result against a best
// cost derived from thresh observe exactly the same outcome as with a
// full SAD, because an aborted value can never win the comparison.
//
//vbench:noalloc
func SADThresh(a []uint8, aStride int, b []uint8, bStride int, w, h int, thresh int64) (sad int64, early bool) {
	if thresh <= 0 {
		return 0, true
	}
	var sum int64
	for y := 0; y < h; y++ {
		ar := a[y*aStride : y*aStride+w]
		br := b[y*bStride : y*bStride+w]
		var acc uint64
		chunks := 0
		x := 0
		for ; x+8 <= w; x += 8 {
			xa := binary.LittleEndian.Uint64(ar[x:])
			xb := binary.LittleEndian.Uint64(br[x:])
			acc += absLanes(xa&laneEven, xb&laneEven) +
				absLanes(xa>>8&laneEven, xb>>8&laneEven)
			if chunks++; chunks == flushChunks {
				sum += laneSum(acc)
				acc, chunks = 0, 0
			}
		}
		if x+4 <= w {
			xa := uint64(binary.LittleEndian.Uint32(ar[x:]))
			xb := uint64(binary.LittleEndian.Uint32(br[x:]))
			acc += absLanes(xa&laneEven, xb&laneEven) +
				absLanes(xa>>8&laneEven, xb>>8&laneEven)
			x += 4
		}
		sum += laneSum(acc)
		for ; x < w; x++ {
			d := int(ar[x]) - int(br[x])
			if d < 0 {
				d = -d
			}
			sum += int64(d)
		}
		if sum >= thresh && y+1 < h {
			return sum, true
		}
	}
	return sum, false
}
