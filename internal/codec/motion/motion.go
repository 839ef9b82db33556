// Package motion implements block motion estimation and motion
// compensation for the vbench codec: SAD block matching, full-search
// and fast (diamond, hexagon) search strategies, and half/quarter-pel
// refinement over a shared bilinear interpolation kernel.
//
// Motion vectors are expressed in quarter-pel luma units throughout.
// The interpolation functions are the normative motion-compensation
// path: the encoder's reconstruction loop and the decoder both call
// them, so prediction is bit-identical on both sides.
package motion

import (
	"math"

	"vbench/internal/codec/bitstream"
	"vbench/internal/codec/kern"
	"vbench/internal/perf"
)

// MV is a motion vector in quarter-pel luma units.
type MV struct {
	X, Y int32
}

// Plane is a read-only view of one sample plane.
type Plane struct {
	Pix  []uint8
	W, H int
}

// maxBlock bounds the block width and height of every prediction or
// SAD that runs on an edge-emulated window, since the window lives in
// a fixed stack buffer. The codec predicts 16×16 luma and 8×8 chroma
// blocks.
const maxBlock = 16

// edgeBuf holds one edge-emulated window. It is sized for the largest
// window any path builds, the 4-tap filter's (maxBlock+3)².
type edgeBuf [(maxBlock + 3) * (maxBlock + 3)]uint8

// edgeWindow writes the w×h window of p whose top-left sample is
// (x0, y0) into dst with stride w, replicating the nearest edge sample
// for every position outside the plane (FFmpeg's emulated_edge_mc).
// Each row is a left fill, one copy and a right fill, so a kernel run
// on the window reads exactly the taps a per-sample clamp would.
//
//vbench:noalloc
func (p Plane) edgeWindow(dst []uint8, x0, y0, w, h int) {
	// Window columns [l, r) lie inside the plane; those left of l
	// replicate column 0 and those from r on replicate column W−1.
	l := min(max(-x0, 0), w)
	r := max(min(p.W-x0, w), l)
	for y := 0; y < h; y++ {
		sy := min(max(y0+y, 0), p.H-1)
		row := p.Pix[sy*p.W : (sy+1)*p.W]
		d := dst[y*w : (y+1)*w]
		for x := 0; x < l; x++ {
			d[x] = row[0]
		}
		if l < r {
			copy(d[l:r], row[x0+l:x0+r])
		}
		for x := r; x < w; x++ {
			d[x] = row[p.W-1]
		}
	}
}

// inside reports whether the w×h window at (x0, y0) lies in p.
func (p Plane) inside(x0, y0, w, h int) bool {
	return x0 >= 0 && y0 >= 0 && x0+w <= p.W && y0+h <= p.H
}

// SAD returns the sum of absolute differences between the bw×bh block
// of cur at (cx, cy) — which must lie fully inside cur — and the block
// of ref at (rx, ry), whose out-of-plane samples replicate the nearest
// edge. A reference block past the plane edge may be at most 16×16.
func SAD(cur Plane, cx, cy int, ref Plane, rx, ry int, bw, bh int) int64 {
	sad, _ := sadThresh(cur, cx, cy, ref, rx, ry, bw, bh, math.MaxInt64)
	return sad
}

// sadThresh is SAD with deterministic early termination (see
// kern.SADThresh): once the running sum reaches thresh the scan stops
// and returns the partial sum with early=true. Abort depends only on
// the pixel data and thresh, never on timing, so results are
// bit-reproducible. Callers must only use aborted values in
// comparisons they are guaranteed to lose (cost ≥ thresh + mvCost ≥
// incumbent best). A reference block past the plane edge is first
// emulated into a stack window.
//
//vbench:noalloc
func sadThresh(cur Plane, cx, cy int, ref Plane, rx, ry int, bw, bh int, thresh int64) (int64, bool) {
	if ref.inside(rx, ry, bw, bh) {
		return kern.SADThresh(cur.Pix[cy*cur.W+cx:], cur.W, ref.Pix[ry*ref.W+rx:], ref.W, bw, bh, thresh)
	}
	var win edgeBuf
	ref.edgeWindow(win[:], rx, ry, bw, bh)
	return kern.SADThresh(cur.Pix[cy*cur.W+cx:], cur.W, win[:], bw, bw, bh, thresh)
}

// Scratch holds the reusable buffers of one motion-search /
// motion-compensation caller, hoisted out of the per-call hot path so
// steady-state sharp interpolation performs no heap allocations.
// Buffers grow on demand and are retained across calls; each Scratch
// must be owned by a single goroutine (the codec gives every slice
// encoder its own). A nil *Scratch is valid and falls back to per-call
// allocation, preserving the old behaviour for callers that do not
// keep one.
type Scratch struct {
	tmp []int32

	// SADEarlyExits counts SAD evaluations the threshold kernels
	// aborted early during searches using this Scratch. Telemetry
	// only: the count is deterministic for a given input but feeds no
	// coding decision, and perf.Counters op counts stay at their
	// nominal (full-block) values regardless of aborts.
	SADEarlyExits int64

	// RevisitsSkipped counts candidates searches using this Scratch
	// did not cost because the same search had costed the same vector
	// before. Telemetry only, like SADEarlyExits: a skipped candidate
	// still bills its nominal perf.Counters work.
	RevisitsSkipped int64
}

// tmpBuf returns an n-element intermediate buffer for the separable
// interpolation passes.
func (s *Scratch) tmpBuf(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	if cap(s.tmp) < n {
		s.tmp = make([]int32, n)
	}
	return s.tmp[:n]
}

// sharpTaps are the 4-tap Catmull-Rom interpolation kernels for
// quarter-pel fractions 1..3 (×64). The HEVC-generation encoders use
// these instead of bilinear interpolation: the sharper kernel
// preserves texture under motion, reducing residual energy — one of
// the real compression advantages of the newer codecs.
var sharpTaps = [4][4]int{
	{0, 64, 0, 0},
	{-5, 56, 15, -2},
	{-4, 36, 36, -4},
	{-2, 15, 56, -5},
}

// PredictLumaSharp writes the motion-compensated prediction like
// PredictLuma but interpolates sub-pel positions with the separable
// 4-tap kernel (applied horizontally then vertically with
// intermediate 14-bit precision). The horizontal pass reads an
// edge-emulated window, so no tap is clamped individually; sub-pel
// blocks may be at most 16×16. sc provides the intermediate-pass buffer; nil allocates
// one per call.
func PredictLumaSharp(dst []uint8, ref Plane, bx, by int, mv MV, bw, bh int, sc *Scratch) {
	ix := bx + int(mv.X>>2)
	iy := by + int(mv.Y>>2)
	fx := int(mv.X & 3)
	fy := int(mv.Y & 3)
	if fx == 0 && fy == 0 {
		ref.edgeWindow(dst, ix, iy, bw, bh)
		return
	}
	wx := sharpTaps[fx]
	wy := sharpTaps[fy]
	// The taps reach one sample above and left of the block and two
	// below and right of it.
	var win edgeBuf
	stride := bw + 3
	tmpH := bh + 3
	ref.edgeWindow(win[:], ix-1, iy-1, stride, tmpH)
	// Horizontal pass over all tmpH window rows, Q6.
	tmp := sc.tmpBuf(bw * tmpH)
	for y := 0; y < tmpH; y++ {
		row := win[y*stride : (y+1)*stride]
		t := tmp[y*bw : (y+1)*bw]
		for x := range t {
			p := row[x : x+4]
			t[x] = int32(wx[0]*int(p[0]) + wx[1]*int(p[1]) + wx[2]*int(p[2]) + wx[3]*int(p[3]))
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

// PredictLuma writes the motion-compensated bw×bh prediction of the
// block at (bx, by) with motion vector mv (quarter-pel) from ref into
// dst (row-major, stride bw). Sub-pel positions use bilinear
// interpolation with 1/16 rounding; out-of-frame references replicate
// edges. Integer vectors are row copies. Sub-pel vectors run the SWAR
// kernel, directly on ref for interior blocks and on an edge-emulated
// window for blocks whose taps reach past the plane; such blocks may
// be at most 16×16.
//
//vbench:noalloc
func PredictLuma(dst []uint8, ref Plane, bx, by int, mv MV, bw, bh int) {
	predictBilinear(dst, ref, bx+int(mv.X>>2), by+int(mv.Y>>2), int(mv.X&3), int(mv.Y&3), 4, 4, bw, bh)
}

// PredictChroma writes the bw×bh chroma prediction for chroma-plane
// block position (bx, by) using the luma-domain quarter-pel vector mv,
// which has eighth-pel precision in the half-resolution chroma plane.
// Edges are handled as in PredictLuma.
//
//vbench:noalloc
func PredictChroma(dst []uint8, ref Plane, bx, by int, mv MV, bw, bh int) {
	predictBilinear(dst, ref, bx+int(mv.X>>3), by+int(mv.Y>>3), int(mv.X&7), int(mv.Y&7), 8, 6, bw, bh)
}

// bilinearWeights returns the four tap weights of the fractional
// position (fx, fy), given in units of 1/n sample; they sum to n².
func bilinearWeights(fx, fy, n int) (w00, w10, w01, w11 int) {
	return (n - fx) * (n - fy), fx * (n - fy), (n - fx) * fy, fx * fy
}

// predictBilinear writes the bw×bh bilinear prediction whose top-left
// integer tap is (ix, iy) and whose fractional offset is (fx, fy) in
// units of 1/n sample, with n² = 1<<shift.
//
//vbench:noalloc
func predictBilinear(dst []uint8, ref Plane, ix, iy, fx, fy, n int, shift uint, bw, bh int) {
	if fx == 0 && fy == 0 {
		ref.edgeWindow(dst, ix, iy, bw, bh)
		return
	}
	w00, w10, w01, w11 := bilinearWeights(fx, fy, n)
	round := n * n / 2
	if ref.inside(ix, iy, bw+1, bh+1) {
		kern.PredictBilinear(dst, bw, ref.Pix[iy*ref.W+ix:], ref.W, w00, w10, w01, w11, round, shift, bw, bh)
		return
	}
	var win edgeBuf
	ref.edgeWindow(win[:], ix, iy, bw+1, bh+1)
	kern.PredictBilinear(dst, bw, win[:], bw+1, w00, w10, w01, w11, round, shift, bw, bh)
}

// sadSubpelThresh computes the SAD of the current block against the
// interpolated reference at quarter-pel vector mv, aborting (like
// sadThresh) once the running sum reaches thresh. Sub-pel candidates
// take the fused SWAR interpolate+SAD kernel, which never materializes
// the prediction: directly on ref for interior windows, on an
// edge-emulated copy otherwise. Either way, a non-aborted result is
// the exact PredictLuma+SAD value, and the abort point is the one
// kern.SADThresh would reach on that prediction.
//
//vbench:noalloc
func sadSubpelThresh(cur Plane, cx, cy int, ref Plane, mv MV, bw, bh int, thresh int64) (int64, bool) {
	ix := cx + int(mv.X>>2)
	iy := cy + int(mv.Y>>2)
	fx := int(mv.X & 3)
	fy := int(mv.Y & 3)
	if fx == 0 && fy == 0 {
		return sadThresh(cur, cx, cy, ref, ix, iy, bw, bh, thresh)
	}
	w00, w10, w01, w11 := bilinearWeights(fx, fy, 4)
	c := cur.Pix[cy*cur.W+cx:]
	if ref.inside(ix, iy, bw+1, bh+1) {
		return kern.BilinearSADThresh(c, cur.W, ref.Pix[iy*ref.W+ix:], ref.W, w00, w10, w01, w11, 8, 4, bw, bh, thresh)
	}
	var win edgeBuf
	ref.edgeWindow(win[:], ix, iy, bw+1, bh+1)
	return kern.BilinearSADThresh(c, cur.W, win[:], bw+1, w00, w10, w01, w11, 8, 4, bw, bh, thresh)
}

// PredSAD returns the SAD between the bw×bh block of cur at (bx, by)
// and its motion-compensated prediction from ref at quarter-pel vector
// mv. Work is accounted into c.
func PredSAD(cur Plane, bx, by int, ref Plane, mv MV, bw, bh int, c *perf.Counters) int64 {
	sad, _ := PredSADThresh(cur, bx, by, ref, mv, bw, bh, math.MaxInt64, c)
	return sad
}

// PredSADThresh is PredSAD with deterministic early termination: if
// the SAD reaches thresh the scan aborts, returning a partial sum
// ≥ thresh and early=true. Counter accounting is identical to PredSAD
// — op counts are nominal full-block work, unaffected by aborts, so
// modeled speeds stay deterministic (see docs/FORMAT.md).
func PredSADThresh(cur Plane, bx, by int, ref Plane, mv MV, bw, bh int, thresh int64, c *perf.Counters) (int64, bool) {
	blockOps := int64(bw * bh)
	if mv.X&3 == 0 && mv.Y&3 == 0 {
		c.Count(perf.KSAD, blockOps)
		return sadThresh(cur, bx, by, ref, bx+int(mv.X>>2), by+int(mv.Y>>2), bw, bh, thresh)
	}
	c.Count(perf.KInterp, blockOps*4)
	c.Count(perf.KSAD, blockOps)
	return sadSubpelThresh(cur, bx, by, ref, mv, bw, bh, thresh)
}

// SearchKind selects the integer-pel search strategy.
type SearchKind int

// Available search strategies, cheapest to most exhaustive.
const (
	SearchDiamond SearchKind = iota
	SearchHex
	SearchFull
)

// String names the search strategy.
func (k SearchKind) String() string {
	switch k {
	case SearchDiamond:
		return "dia"
	case SearchHex:
		return "hex"
	case SearchFull:
		return "esa"
	}
	return "unknown"
}

// Params configures a motion search.
type Params struct {
	Kind SearchKind
	// Range is the integer search radius in pixels.
	Range int
	// SubPel selects refinement depth: 0 integer, 1 half-pel,
	// 2 quarter-pel.
	SubPel int
	// Lambda weights motion-vector rate against distortion
	// (cost = SAD + Lambda·bits(mvd)); it scales with quantizer.
	Lambda int64
}

// mvdBits estimates the coded size of a motion-vector difference.
func mvdBits(mv, pred MV) int64 {
	return int64(bitstream.SEBits(mv.X-pred.X) + bitstream.SEBits(mv.Y-pred.Y))
}

// visitBits sizes a visitSet at 1<<visitBits slots. A hex or diamond
// search with quarter-pel refinement costs a few dozen distinct
// vectors, well inside the fill limit of three quarters.
const visitBits = 7

// visitSet records the vectors one Search call has costed, so a
// candidate the search reaches again is not costed twice. Skipping one
// is exact: when the vector was costed it scored ≥ the best cost of
// that moment, the best cost only falls, and λ and pred are fixed for
// the call, so the same cost cannot win the strict `< best` comparison
// now — the argument that already justifies the SAD early exit.
//
// The table is fixed-size and open-addressed, so it lives on the
// caller's stack. A vector it cannot hold (table at its fill limit, or
// a component beyond ±32767 quarter-pel) is simply costed again,
// which is always exact.
type visitSet struct {
	keys [1 << visitBits]uint32 // 0 marks an empty slot
	n    int
	// allInt is set once the exhaustive search has costed every
	// integer vector within the search range; those are not stored.
	allInt bool
}

// seen reports whether mv was costed earlier in this search and
// records it if not. mv must lie within the search range.
//
//vbench:noalloc
func (v *visitSet) seen(mv MV) bool {
	if v.allInt && mv.X&3 == 0 && mv.Y&3 == 0 {
		return true
	}
	if mv.X < -32767 || mv.X > 32767 || mv.Y < -32767 || mv.Y > 32767 {
		return false
	}
	// Both halves are ≥ 1, so no key is 0.
	key := uint32(mv.X+32768)<<16 | uint32(mv.Y+32768)
	const mask = 1<<visitBits - 1
	for i := (key * 0x9E3779B1) >> (32 - visitBits); ; i = (i + 1) & mask {
		switch v.keys[i] {
		case key:
			return true
		case 0:
			if v.n < len(v.keys)*3/4 {
				v.keys[i] = key
				v.n++
			}
			return false
		}
	}
}

// intSearcher evaluates integer-pel candidates for one Search call.
// It replaces the closure the search loops used to capture: a plain
// struct passed by pointer stays on the caller's stack, where the
// escaping closure (and every variable it captured) cost a handful of
// heap allocations per macroblock.
type intSearcher struct {
	cur, ref Plane
	bx, by   int
	bw, bh   int
	pred     MV
	lambda   int64
	evals    int
	// best mirrors the caller's incumbent best cost so SAD evaluation
	// can stop as soon as a candidate is provably losing. earlyExits
	// counts aborted evaluations and revisits skipped candidates
	// (both telemetry only).
	best       int64
	earlyExits int64
	revisits   int64
	visited    visitSet
}

// cost returns SAD + λ·bits(mvd) for the integer-pel vector (mx, my),
// or math.MaxInt64 — a cost that loses every `< best` comparison —
// when this search has costed the vector before (see visitSet). A
// skipped vector still counts as an evaluation, so the nominal work
// billed is unchanged.
func (s *intSearcher) cost(mx, my int) int64 {
	if s.visited.seen(MV{int32(mx) * 4, int32(my) * 4}) {
		s.evals++
		s.revisits++
		return math.MaxInt64
	}
	return s.costFresh(mx, my)
}

// costFresh costs (mx, my) without consulting the visited set. The
// SAD scan aborts once it reaches best−mvCost: an aborted return value
// is ≥ best, so the caller's `< best` comparison loses exactly as it
// would on the full SAD, and best (always set from exact, non-aborted
// evaluations) follows the same trajectory as a full search — the
// selected vector and cost are bit-identical.
func (s *intSearcher) costFresh(mx, my int) int64 {
	s.evals++
	mv := MV{int32(mx) * 4, int32(my) * 4}
	mvCost := s.lambda * mvdBits(mv, s.pred) / 16
	sad, early := sadThresh(s.cur, s.bx, s.by, s.ref, s.bx+mx, s.by+my, s.bw, s.bh, s.best-mvCost)
	if early {
		s.earlyExits++
	}
	return sad + mvCost
}

// Search finds a motion vector for the bw×bh block at (bx, by) of cur
// in ref. pred is the motion-vector predictor used for rate costing
// and as the search start point. sc, when non-nil, accumulates the
// search's SADEarlyExits. Returns the best vector (quarter-pel) and its
// cost. Work is accounted into c.
func Search(cur Plane, bx, by int, ref Plane, pred MV, bw, bh int, p Params, sc *Scratch, c *perf.Counters) (MV, int64) {
	blockOps := int64(bw * bh)
	s := intSearcher{cur: cur, ref: ref, bx: bx, by: by, bw: bw, bh: bh, pred: pred, lambda: p.Lambda, best: math.MaxInt64}

	// Start from the predictor rounded to integer pel, clamped to range.
	startX := clampInt(int(pred.X)/4, -p.Range, p.Range)
	startY := clampInt(int(pred.Y)/4, -p.Range, p.Range)

	bestX, bestY := 0, 0
	bestCost := s.cost(0, 0)
	s.best = bestCost
	if startX != 0 || startY != 0 {
		if c := s.cost(startX, startY); c < bestCost {
			bestCost, bestX, bestY = c, startX, startY
			s.best = c
		}
	}

	switch p.Kind {
	case SearchFull:
		// The raster visits every vector once, so it needs no set
		// lookups; only the start vector was costed before it.
		for my := -p.Range; my <= p.Range; my++ {
			for mx := -p.Range; mx <= p.Range; mx++ {
				if mx == 0 && my == 0 {
					continue
				}
				if mx == startX && my == startY {
					s.evals++
					s.revisits++
					continue
				}
				if c := s.costFresh(mx, my); c < bestCost {
					bestCost, bestX, bestY = c, mx, my
					s.best = c
				}
			}
		}
		s.visited.allInt = true
	case SearchDiamond:
		bestX, bestY, bestCost = patternSearch(bestX, bestY, bestCost, p.Range, diamondLarge[:], diamondSmall[:], &s)
	case SearchHex:
		bestX, bestY, bestCost = patternSearch(bestX, bestY, bestCost, p.Range, hexPattern[:], diamondSmall[:], &s)
	}
	c.Count(perf.KSAD, blockOps*int64(s.evals))
	c.DataDepBranches += int64(s.evals)

	best := MV{int32(bestX) * 4, int32(bestY) * 4}
	if p.SubPel == 0 {
		if sc != nil {
			sc.SADEarlyExits += s.earlyExits
			sc.RevisitsSkipped += s.revisits
		}
		return best, bestCost
	}

	// Sub-pel refinement: half-pel, then quarter-pel, each testing the
	// 8 neighbours of the incumbent. As in the integer stage, each
	// candidate's SAD aborts once it reaches bestCost−mvCost; aborted
	// values cannot win the comparison, so the refinement trajectory
	// matches the full evaluation exactly. The rings of successive
	// incumbents overlap, and a half-pel step can land on an integer
	// vector the integer stage costed; the visited set skips those.
	subEvals := 0
	steps := [2]int32{2, 1}
	nSteps := 1
	if p.SubPel >= 2 {
		nSteps = 2
	}
	for _, step := range steps[:nSteps] {
		improved := true
		for improved {
			improved = false
			for _, d := range neighbours8 {
				cand := MV{best.X + d[0]*step, best.Y + d[1]*step}
				if int(cand.X)/4 < -p.Range || int(cand.X)/4 > p.Range ||
					int(cand.Y)/4 < -p.Range || int(cand.Y)/4 > p.Range {
					continue
				}
				subEvals++
				if s.visited.seen(cand) {
					s.revisits++
					continue
				}
				mvCost := p.Lambda * mvdBits(cand, pred) / 16
				sad, early := sadSubpelThresh(cur, bx, by, ref, cand, bw, bh, bestCost-mvCost)
				if early {
					s.earlyExits++
				}
				if cost := sad + mvCost; cost < bestCost {
					bestCost = cost
					best = cand
					improved = true
				}
			}
		}
	}
	// Each sub-pel eval interpolates and compares the whole block.
	// Counts are nominal: an early-terminated SAD still counts the
	// full block, keeping modeled speeds independent of abort points.
	c.Count(perf.KInterp, blockOps*int64(subEvals)*4)
	c.Count(perf.KSAD, blockOps*int64(subEvals))
	c.DataDepBranches += int64(subEvals)
	if sc != nil {
		sc.SADEarlyExits += s.earlyExits
		sc.RevisitsSkipped += s.revisits
	}
	return best, bestCost
}

var neighbours8 = [8][2]int32{
	{-1, -1}, {0, -1}, {1, -1},
	{-1, 0}, {1, 0},
	{-1, 1}, {0, 1}, {1, 1},
}

var diamondLarge = [8][2]int{{0, -2}, {1, -1}, {2, 0}, {1, 1}, {0, 2}, {-1, 1}, {-2, 0}, {-1, -1}}
var diamondSmall = [4][2]int{{0, -1}, {1, 0}, {0, 1}, {-1, 0}}
var hexPattern = [6][2]int{{-2, 0}, {-1, -2}, {1, -2}, {2, 0}, {1, 2}, {-1, 2}}

// patternSearch iterates a coarse pattern until no candidate improves,
// then refines once with a fine pattern.
func patternSearch(bx, by int, bestCost int64, searchRange int, coarse, fine [][2]int, s *intSearcher) (int, int, int64) {
	for iter := 0; iter < 4*searchRange+16; iter++ {
		improved := false
		for _, d := range coarse {
			x, y := bx+d[0], by+d[1]
			if x < -searchRange || x > searchRange || y < -searchRange || y > searchRange {
				continue
			}
			if sc := s.cost(x, y); sc < bestCost {
				bestCost, bx, by = sc, x, y
				s.best = sc
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	for _, d := range fine {
		x, y := bx+d[0], by+d[1]
		if x < -searchRange || x > searchRange || y < -searchRange || y > searchRange {
			continue
		}
		if sc := s.cost(x, y); sc < bestCost {
			bestCost, bx, by = sc, x, y
			s.best = sc
		}
	}
	return bx, by, bestCost
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MedianMV returns the component-wise median of three motion vectors,
// the standard H.264 motion-vector predictor.
func MedianMV(a, b, c MV) MV {
	return MV{median3(a.X, b.X, c.X), median3(a.Y, b.Y, c.Y)}
}

func median3(a, b, c int32) int32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
