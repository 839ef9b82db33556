package codec

import (
	"testing"

	"vbench/internal/perf"
	"vbench/internal/rng"
	"vbench/internal/video"
)

// deblockFrame deblocks a whole frame as one slice through the row
// kernel, in the order the coder runs it.
func deblockFrame(f *video.Frame, qpGrid []int, wMB, hMB int, c *perf.Counters) {
	for local := 0; local < hMB; local++ {
		deblockAfter(f, qpGrid, wMB, 0, hMB, local)
	}
	deblockSeams(f, qpGrid, wMB, []int{0, hMB}, c)
}

func TestDeblockThresholdsGrowWithQP(t *testing.T) {
	prevA := 0
	for qp := 0; qp <= 51; qp++ {
		a, b, tc := deblockThresholds(qp)
		if a < prevA {
			t.Fatalf("alpha fell at qp %d", qp)
		}
		if b < 1 || tc < 1 {
			t.Fatalf("qp %d: beta %d tc %d", qp, b, tc)
		}
		prevA = a
	}
	aLo, _, _ := deblockThresholds(5)
	aHi, _, _ := deblockThresholds(45)
	if aHi <= aLo {
		t.Error("alpha not increasing over the QP range")
	}
}

func TestDeblockSmoothsBlockEdge(t *testing.T) {
	// A small step at an 8-pixel boundary (a coding artifact) must be
	// reduced.
	f := video.NewFrame(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			v := uint8(100)
			if x >= 8 {
				v = 108
			}
			f.Y[y*32+x] = v
		}
	}
	qpGrid := []int{35, 35, 35, 35}
	var c perf.Counters
	deblockFrame(f, qpGrid, 2, 2, &c)
	stepBefore := 8
	stepAfter := int(f.Y[16*32+8]) - int(f.Y[16*32+7])
	if stepAfter >= stepBefore {
		t.Errorf("edge step not reduced: %d -> %d", stepBefore, stepAfter)
	}
	if c.Ops[perf.KDeblock] == 0 {
		t.Error("deblock recorded no work")
	}
}

func TestDeblockPreservesRealEdges(t *testing.T) {
	// A large step (a real edge) must pass through untouched.
	f := video.NewFrame(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			v := uint8(40)
			if x >= 8 {
				v = 200
			}
			f.Y[y*32+x] = v
		}
	}
	qpGrid := []int{30, 30, 30, 30}
	var c perf.Counters
	deblockFrame(f, qpGrid, 2, 2, &c)
	if f.Y[16*32+7] != 40 || f.Y[16*32+8] != 200 {
		t.Errorf("real edge modified: %d | %d", f.Y[16*32+7], f.Y[16*32+8])
	}
}

func TestDeblockFlatRegionUnchanged(t *testing.T) {
	f := video.NewFrame(32, 32)
	for i := range f.Y {
		f.Y[i] = 128
	}
	qpGrid := []int{40, 40, 40, 40}
	var c perf.Counters
	deblockFrame(f, qpGrid, 2, 2, &c)
	for i, v := range f.Y {
		if v != 128 {
			t.Fatalf("flat sample %d changed to %d", i, v)
		}
	}
}

func TestDeblockDeterministic(t *testing.T) {
	mk := func() *video.Frame {
		p := video.ContentParams{Seed: 3, Detail: 0.7, ChromaVariety: 0.5}
		seq, err := video.Generate(p, 64, 64, 1, 30)
		if err != nil {
			t.Fatal(err)
		}
		return seq.Frames[0]
	}
	a, b := mk(), mk()
	grid := make([]int, 16)
	for i := range grid {
		grid[i] = 28 + i
	}
	var c perf.Counters
	deblockFrame(a, grid, 4, 4, &c)
	deblockFrame(b, grid, 4, 4, &c)
	if !a.Equal(b) {
		t.Error("deblock not deterministic")
	}
}

// deblockFrameRef is the normative whole-frame filter, kept verbatim
// from the frame-level pass the row kernel replaced: every vertical
// edge of a plane, then every horizontal edge, with per-sample
// thresholds.
func deblockFrameRef(f *video.Frame, qpGrid []int, wMB, hMB int, c *perf.Counters) {
	// Luma: vertical then horizontal edges on the 8×8 grid.
	deblockPlaneRef(f.Y, f.Width, f.Height, 8, 1, qpGrid, wMB, c)
	// Chroma: macroblock-boundary edges only (8-pixel grid in the
	// half-resolution planes corresponds to 16-pixel luma boundaries).
	deblockPlaneRef(f.Cb, f.ChromaWidth(), f.ChromaHeight(), 8, 2, qpGrid, wMB, c)
	deblockPlaneRef(f.Cr, f.ChromaWidth(), f.ChromaHeight(), 8, 2, qpGrid, wMB, c)
}

// deblockPlaneRef filters one plane. grid is the edge spacing in plane
// pixels; lumaScale is 1 for luma (16-pixel MBs) and 2 for chroma
// (8-pixel MBs in plane coordinates).
func deblockPlaneRef(pix []uint8, w, h, grid, lumaScale int, qpGrid []int, wMB int, c *perf.Counters) {
	mbDim := MBSize / lumaScale
	qpAt := func(x, y int) int {
		mx := x / mbDim
		my := y / mbDim
		idx := my*wMB + mx
		if idx >= len(qpGrid) {
			idx = len(qpGrid) - 1
		}
		return qpGrid[idx]
	}
	var ops int64
	// Vertical edges (filter across columns).
	for x := grid; x < w; x += grid {
		for y := 0; y < h; y++ {
			qp := (qpAt(x-1, y) + qpAt(x, y) + 1) / 2
			alpha, beta, tc := deblockThresholds(qp)
			i := y*w + x
			filterEdgeRef(pix, i-1, i,
				int(pix[i-2]), int(pix[i-1]), int(pix[i]), int(pix[i+1]),
				alpha, beta, tc)
			ops += 4
		}
	}
	// Horizontal edges (filter across rows).
	for y := grid; y < h; y += grid {
		for x := 0; x < w; x++ {
			qp := (qpAt(x, y-1) + qpAt(x, y) + 1) / 2
			alpha, beta, tc := deblockThresholds(qp)
			i := y*w + x
			filterEdgeRef(pix, i-w, i,
				int(pix[i-2*w]), int(pix[i-w]), int(pix[i]), int(pix[i+w]),
				alpha, beta, tc)
			ops += 4
		}
	}
	c.Count(perf.KDeblock, ops)
}

// filterEdgeRef applies the weak deblocking filter across one edge
// given sample values p1 p0 | q0 q1 at indices ip0 (p0) and iq0 (q0).
func filterEdgeRef(pix []uint8, ip0, iq0 int, p1, p0, q0, q1 int, alpha, beta, tc int) {
	dp := p0 - q0
	if dp < 0 {
		dp = -dp
	}
	if dp >= alpha {
		return
	}
	d1 := p1 - p0
	if d1 < 0 {
		d1 = -d1
	}
	d2 := q1 - q0
	if d2 < 0 {
		d2 = -d2
	}
	if d1 >= beta || d2 >= beta {
		return
	}
	delta := ((q0-p0)*4 + (p1 - q1) + 4) >> 3
	if delta > tc {
		delta = tc
	}
	if delta < -tc {
		delta = -tc
	}
	pix[ip0] = clip255i(p0 + delta)
	pix[iq0] = clip255i(q0 - delta)
}

// deblockInput is one frame to deblock: a wMB×hMB macroblock grid with
// its quantizers and slice bounds.
type deblockInput struct {
	f        *video.Frame
	qpGrid   []int
	wMB, hMB int
	bounds   []int
}

// randomDeblockInput draws a frame whose 8×8 blocks sit a few levels
// apart (coding-artifact steps the filter smooths) with occasional
// large steps (real edges it keeps), per-sample noise of a random
// amplitude, levels near both clip bounds, QPs across the whole range
// (0 and 51 always among them), and random slice bounds.
func randomDeblockInput(r *rng.Rand, wMB, hMB int) deblockInput {
	in := deblockInput{f: video.NewFrame(wMB*MBSize, hMB*MBSize), wMB: wMB, hMB: hMB}
	noise := []int{0, 1, 3, 24}[r.Intn(4)]
	bases := [3]int{2, 128, 253}
	fill := func(pix []uint8, w int) {
		h := len(pix) / w
		base := bases[r.Intn(3)]
		blocks := make([]int, (w/8)*(h/8))
		for i := range blocks {
			blocks[i] = base + r.Intn(13) - 6
			if r.Intn(10) == 0 {
				blocks[i] = r.Intn(256)
			}
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := blocks[(y/8)*(w/8)+x/8]
				if noise > 0 {
					v += r.Intn(2*noise+1) - noise
				}
				pix[y*w+x] = clip255i(v)
			}
		}
	}
	fill(in.f.Y, in.f.Width)
	fill(in.f.Cb, in.f.ChromaWidth())
	fill(in.f.Cr, in.f.ChromaWidth())

	in.qpGrid = make([]int, wMB*hMB)
	flat := r.Intn(3) == 0 // one QP everywhere: edges inside and between MBs agree
	q0 := r.Intn(52)
	for i := range in.qpGrid {
		switch {
		case flat:
			in.qpGrid[i] = q0
		case r.Intn(4) == 0:
			in.qpGrid[i] = []int{0, 51}[r.Intn(2)]
		default:
			in.qpGrid[i] = 20 + r.Intn(32)
		}
	}
	if !flat {
		in.qpGrid[r.Intn(len(in.qpGrid))] = 0
		in.qpGrid[r.Intn(len(in.qpGrid))] = 51
	}

	// Each of the hMB−1 row boundaries is a slice seam with
	// probability ½.
	in.bounds = []int{0}
	for b := 1; b < hMB; b++ {
		if r.Intn(2) == 0 {
			in.bounds = append(in.bounds, b)
		}
	}
	in.bounds = append(in.bounds, hMB)
	return in
}

// runSchedule deblocks a copy of in.f the way the coder does: order
// lists slice indices, and each occurrence of slice s is its next row
// finishing (deblockAfter); the frame tail then runs deblockSeams.
func (in deblockInput) runSchedule(order []int) (*video.Frame, perf.Counters) {
	f := in.f.Clone()
	next := make([]int, len(in.bounds)-1)
	for _, s := range order {
		rows := in.bounds[s+1] - in.bounds[s]
		deblockAfter(f, in.qpGrid, in.wMB, in.bounds[s], rows, next[s])
		next[s]++
	}
	var c perf.Counters
	deblockSeams(f, in.qpGrid, in.wMB, in.bounds, &c)
	return f, c
}

// reference deblocks a copy of in.f with the normative pass.
func (in deblockInput) reference() (*video.Frame, perf.Counters) {
	f := in.f.Clone()
	var c perf.Counters
	deblockFrameRef(f, in.qpGrid, in.wMB, in.hMB, &c)
	return f, c
}

// forEachSchedule calls fn with row schedules of slices of n[s] rows:
// interleavings of the slices' row sequences, each slice's rows in
// order. When there are at most limit of them it calls fn with every
// one; otherwise with limit random ones.
func forEachSchedule(n []int, limit int, r *rng.Rand, fn func(order []int)) {
	total := 0
	for _, k := range n {
		total += k
	}
	// Count the interleavings (a multinomial), stopping past limit.
	count, left := 1, 0
	for _, k := range n {
		for i := 1; i <= k && count <= limit; i++ {
			left++
			count = count * left / i
		}
	}
	order := make([]int, 0, total)
	remaining := append([]int(nil), n...)
	if count <= limit {
		var rec func()
		rec = func() {
			if len(order) == total {
				fn(order)
				return
			}
			for s := range remaining {
				if remaining[s] > 0 {
					remaining[s]--
					order = append(order, s)
					rec()
					order = order[:len(order)-1]
					remaining[s]++
				}
			}
		}
		rec()
		return
	}
	for it := 0; it < limit; it++ {
		order = order[:0]
		copy(remaining, n)
		for len(order) < total {
			// Pick the next row's slice with odds ∝ rows left, which
			// draws every interleaving with equal probability.
			pick := r.Intn(total - len(order))
			for s, k := range remaining {
				if pick < k {
					remaining[s]--
					order = append(order, s)
					break
				}
				pick -= k
			}
		}
		fn(order)
	}
}

// checkDeblockSchedules runs every legal row schedule (up to limit) of
// in and requires the reference's samples and counters from each.
func checkDeblockSchedules(t *testing.T, in deblockInput, limit int, r *rng.Rand) {
	t.Helper()
	want, wantC := in.reference()
	n := make([]int, len(in.bounds)-1)
	for s := range n {
		n[s] = in.bounds[s+1] - in.bounds[s]
	}
	forEachSchedule(n, limit, r, func(order []int) {
		got, gotC := in.runSchedule(order)
		if !got.Equal(want) {
			t.Fatalf("%d×%d MBs, bounds %v, schedule %v: samples differ from the whole-frame pass",
				in.wMB, in.hMB, in.bounds, order)
		}
		if gotC != wantC {
			t.Fatalf("%d×%d MBs, bounds %v: counters %+v, want %+v", in.wMB, in.hMB, in.bounds, gotC, wantC)
		}
	})
}

// TestDeblockRowsMatchRef pins the row kernel to the normative
// whole-frame pass: over random planes from one macroblock to wide and
// tall grids, QPs from 0 to 51, random slice bounds and every legal
// row schedule, the samples and perf.Counters must match exactly.
func TestDeblockRowsMatchRef(t *testing.T) {
	r := rng.New(35)
	grids := []struct{ w, h int }{
		{1, 1}, {1, 2}, {2, 1}, {2, 2}, {1, 5}, {5, 1}, {3, 4},
		{4, 3}, {12, 2}, {2, 9}, {6, 6}, {20, 3},
	}
	filtered := false
	for _, g := range grids {
		for it := 0; it < 8; it++ {
			in := randomDeblockInput(r, g.w, g.h)
			checkDeblockSchedules(t, in, 64, r)
			if got, _ := in.reference(); !got.Equal(in.f) {
				filtered = true
			}
		}
	}
	if !filtered {
		t.Fatal("no input had an edge the filter changes")
	}
}

// FuzzDeblock checks the row kernel against the whole-frame pass on
// fuzzed grids, pixels, QPs, slice bounds and schedules.
func FuzzDeblock(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(1))
	f.Add(uint64(2), uint8(4), uint8(3))
	f.Add(uint64(3), uint8(9), uint8(2))
	f.Add(uint64(4), uint8(2), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, w, h uint8) {
		wMB, hMB := 1+int(w)%12, 1+int(h)%12
		r := rng.New(seed)
		checkDeblockSchedules(t, randomDeblockInput(r, wMB, hMB), 8, r)
	})
}

// BenchmarkDeblockFrame times one 1280×720 frame (80×45 macroblocks)
// through the row kernel and through the whole-frame reference.
func BenchmarkDeblockFrame(b *testing.B) {
	in := randomDeblockInput(rng.New(1), 80, 45)
	for _, bc := range []struct {
		name string
		run  func(f *video.Frame, c *perf.Counters)
	}{
		{"rows", func(f *video.Frame, c *perf.Counters) { deblockFrame(f, in.qpGrid, in.wMB, in.hMB, c) }},
		{"ref", func(f *video.Frame, c *perf.Counters) { deblockFrameRef(f, in.qpGrid, in.wMB, in.hMB, c) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f := in.f.Clone()
			var c perf.Counters
			b.SetBytes(int64(len(f.Y) + len(f.Cb) + len(f.Cr)))
			for i := 0; i < b.N; i++ {
				copy(f.Y, in.f.Y)
				copy(f.Cb, in.f.Cb)
				copy(f.Cr, in.f.Cr)
				bc.run(f, &c)
			}
		})
	}
}
