package motion

import (
	"math"
	"math/rand"
	"testing"

	"vbench/internal/codec/kern"
	"vbench/internal/perf"
)

// randPlane builds a plane with one of several textures; tiny planes
// force the edge-emulated paths, larger ones the interior kernels.
func randPlane(rng *rand.Rand, w, h int, mode int) Plane {
	pix := make([]uint8, w*h)
	switch mode {
	case 0:
		rng.Read(pix)
	case 1:
		for i := range pix {
			pix[i] = uint8(255 * rng.Intn(2))
		}
	default:
		base := uint8(rng.Intn(256))
		for i := range pix {
			pix[i] = base + uint8(rng.Intn(5)) - 2
		}
	}
	return Plane{Pix: pix, W: w, H: h}
}

func TestSADMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 3000; iter++ {
		W := 20 + rng.Intn(40)
		H := 20 + rng.Intn(30)
		cur := randPlane(rng, W, H, iter%3)
		ref := randPlane(rng, W, H, (iter+1)%3)
		bw := []int{4, 8, 16}[rng.Intn(3)]
		bh := []int{4, 8, 16}[rng.Intn(3)]
		cx := rng.Intn(W - bw + 1)
		cy := rng.Intn(H - bh + 1)
		// Reference positions range past every edge.
		rx := rng.Intn(W+2*bw) - bw
		ry := rng.Intn(H+2*bh) - bh

		want := sadRef(cur, cx, cy, ref, rx, ry, bw, bh)
		if got := SAD(cur, cx, cy, ref, rx, ry, bw, bh); got != want {
			t.Fatalf("SAD (%d,%d)->(%d,%d) %dx%d: got %d want %d", cx, cy, rx, ry, bw, bh, got, want)
		}

		exact := want
		for _, th := range []int64{0, 1, exact / 2, exact, exact + 1, 1 << 40} {
			got, early := sadThresh(cur, cx, cy, ref, rx, ry, bw, bh, th)
			if !early && got != exact {
				t.Fatalf("sadThresh(th=%d): complete scan %d want %d", th, got, exact)
			}
			if early && (got < th || exact < th) {
				t.Fatalf("sadThresh(th=%d): bad abort got %d exact %d", th, got, exact)
			}
		}
	}
}

func randMV(rng *rand.Rand, r int) MV {
	return MV{int32(rng.Intn(8*r+1) - 4*r), int32(rng.Intn(8*r+1) - 4*r)}
}

func TestPredictMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 3000; iter++ {
		W := 18 + rng.Intn(40)
		H := 18 + rng.Intn(30)
		ref := randPlane(rng, W, H, iter%3)
		bw := []int{4, 8, 16}[rng.Intn(3)]
		bh := bw
		bx := rng.Intn(W+bw) - bw/2 // straddles edges
		by := rng.Intn(H+bh) - bh/2
		mv := randMV(rng, 8)

		got := make([]uint8, bw*bh)
		want := make([]uint8, bw*bh)
		PredictLuma(got, ref, bx, by, mv, bw, bh)
		predictLumaRef(want, ref, bx, by, mv, bw, bh)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("PredictLuma (%d,%d) mv=%v %dx%d [%d]: got %d want %d", bx, by, mv, bw, bh, i, got[i], want[i])
			}
		}

		PredictChroma(got, ref, bx, by, mv, bw, bh)
		predictChromaRef(want, ref, bx, by, mv, bw, bh)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("PredictChroma (%d,%d) mv=%v %dx%d [%d]: got %d want %d", bx, by, mv, bw, bh, i, got[i], want[i])
			}
		}

		PredictLumaSharp(got, ref, bx, by, mv, bw, bh, nil)
		predictLumaSharpRef(want, ref, bx, by, mv, bw, bh)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("PredictLumaSharp (%d,%d) mv=%v %dx%d [%d]: got %d want %d", bx, by, mv, bw, bh, i, got[i], want[i])
			}
		}
	}
}

func TestSadSubpelMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 3000; iter++ {
		W := 24 + rng.Intn(40)
		H := 24 + rng.Intn(30)
		cur := randPlane(rng, W, H, iter%3)
		ref := randPlane(rng, W, H, (iter+2)%3)
		bw, bh := 16, 16
		cx := rng.Intn(W - bw + 1)
		cy := rng.Intn(H - bh + 1)
		mv := randMV(rng, 6)

		want := sadSubpelRef(cur, cx, cy, ref, mv, bw, bh, make([]uint8, bw*bh))
		if got := sadSubpel(cur, cx, cy, ref, mv, bw, bh); got != want {
			t.Fatalf("sadSubpel (%d,%d) mv=%v: got %d want %d", cx, cy, mv, got, want)
		}
		for _, th := range []int64{1, want / 2, want, want + 1} {
			got, early := sadSubpelThresh(cur, cx, cy, ref, mv, bw, bh, th)
			if !early && got != want {
				t.Fatalf("sadSubpelThresh(th=%d): complete scan %d want %d", th, got, want)
			}
			if early && (got < th || want < th) {
				t.Fatalf("sadSubpelThresh(th=%d): bad abort got %d exact %d", th, got, want)
			}
		}
	}
}

// searchRef reimplements the pre-kernel Search verbatim (full SAD on
// every candidate, no early termination) on top of the preserved
// scalar references. TestSearchMatchesRef proves the thresholded
// search follows the identical trajectory: same vector, same cost,
// same perf counter values.
func searchRef(cur Plane, bx, by int, ref Plane, pred MV, bw, bh int, p Params, c *perf.Counters) (MV, int64) {
	blockOps := int64(bw * bh)
	evals := 0
	cost := func(mx, my int) int64 {
		evals++
		sad := sadRef(cur, bx, by, ref, bx+mx, by+my, bw, bh)
		mv := MV{int32(mx) * 4, int32(my) * 4}
		return sad + p.Lambda*mvdBits(mv, pred)/16
	}
	startX := clampInt(int(pred.X)/4, -p.Range, p.Range)
	startY := clampInt(int(pred.Y)/4, -p.Range, p.Range)
	bestX, bestY := 0, 0
	bestCost := cost(0, 0)
	if startX != 0 || startY != 0 {
		if cc := cost(startX, startY); cc < bestCost {
			bestCost, bestX, bestY = cc, startX, startY
		}
	}
	patterns := func(coarse, fine [][2]int) {
		for iter := 0; iter < 4*p.Range+16; iter++ {
			improved := false
			for _, d := range coarse {
				x, y := bestX+d[0], bestY+d[1]
				if x < -p.Range || x > p.Range || y < -p.Range || y > p.Range {
					continue
				}
				if cc := cost(x, y); cc < bestCost {
					bestCost, bestX, bestY = cc, x, y
					improved = true
				}
			}
			if !improved {
				break
			}
		}
		for _, d := range fine {
			x, y := bestX+d[0], bestY+d[1]
			if x < -p.Range || x > p.Range || y < -p.Range || y > p.Range {
				continue
			}
			if cc := cost(x, y); cc < bestCost {
				bestCost, bestX, bestY = cc, x, y
			}
		}
	}
	switch p.Kind {
	case SearchFull:
		for my := -p.Range; my <= p.Range; my++ {
			for mx := -p.Range; mx <= p.Range; mx++ {
				if mx == 0 && my == 0 {
					continue
				}
				if cc := cost(mx, my); cc < bestCost {
					bestCost, bestX, bestY = cc, mx, my
				}
			}
		}
	case SearchDiamond:
		patterns(diamondLarge[:], diamondSmall[:])
	case SearchHex:
		patterns(hexPattern[:], diamondSmall[:])
	}
	c.Count(perf.KSAD, blockOps*int64(evals))
	c.DataDepBranches += int64(evals)

	best := MV{int32(bestX) * 4, int32(bestY) * 4}
	if p.SubPel == 0 {
		return best, bestCost
	}
	scratch := make([]uint8, bw*bh)
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
				cc := sadSubpelRef(cur, bx, by, ref, cand, bw, bh, scratch) + p.Lambda*mvdBits(cand, pred)/16
				if cc < bestCost {
					bestCost = cc
					best = cand
					improved = true
				}
			}
		}
	}
	c.Count(perf.KInterp, blockOps*int64(subEvals)*4)
	c.Count(perf.KSAD, blockOps*int64(subEvals))
	c.DataDepBranches += int64(subEvals)
	return best, bestCost
}

func TestSearchMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	kinds := []SearchKind{SearchDiamond, SearchHex, SearchFull}
	for iter := 0; iter < 300; iter++ {
		W := 40 + rng.Intn(40)
		H := 40 + rng.Intn(24)
		cur := randPlane(rng, W, H, iter%3)
		ref := randPlane(rng, W, H, (iter+1)%3)
		bw, bh := 16, 16
		bx := rng.Intn(W - bw + 1)
		by := rng.Intn(H - bh + 1)
		pred := randMV(rng, 4)
		p := Params{
			Kind:   kinds[iter%len(kinds)],
			Range:  4 + rng.Intn(12),
			SubPel: iter % 3,
			Lambda: int64(rng.Intn(200)),
		}
		if p.Kind == SearchFull {
			p.Range = 4 // keep the exhaustive case fast
		}

		var cGot, cWant perf.Counters
		var scGot Scratch
		gotMV, gotCost := Search(cur, bx, by, ref, pred, bw, bh, p, &scGot, &cGot)
		wantMV, wantCost := searchRef(cur, bx, by, ref, pred, bw, bh, p, &cWant)
		if gotMV != wantMV || gotCost != wantCost {
			t.Fatalf("Search %v range=%d subpel=%d λ=%d at (%d,%d): got %v/%d want %v/%d",
				p.Kind, p.Range, p.SubPel, p.Lambda, bx, by, gotMV, gotCost, wantMV, wantCost)
		}
		if cGot != cWant {
			t.Fatalf("Search counters diverged: got %+v want %+v", cGot, cWant)
		}
	}
}

func TestPredSADThreshMatchesPredSAD(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for iter := 0; iter < 1000; iter++ {
		W, H := 48, 48
		cur := randPlane(rng, W, H, iter%3)
		ref := randPlane(rng, W, H, (iter+1)%3)
		bx := rng.Intn(W - 16 + 1)
		by := rng.Intn(H - 16 + 1)
		mv := randMV(rng, 6)

		var c1, c2 perf.Counters
		exact := PredSAD(cur, bx, by, ref, mv, 16, 16, &c1)
		for _, th := range []int64{1, exact, exact + 1, 1 << 40} {
			var c perf.Counters
			got, early := PredSADThresh(cur, bx, by, ref, mv, 16, 16, th, &c)
			if !early && got != exact {
				t.Fatalf("PredSADThresh(th=%d): %d want %d", th, got, exact)
			}
			if early && (got < th || exact < th) {
				t.Fatalf("PredSADThresh(th=%d): bad abort %d exact %d", th, got, exact)
			}
			c2 = c
			if c1 != c2 {
				t.Fatalf("PredSADThresh counters %+v differ from PredSAD %+v", c2, c1)
			}
		}
	}
}

// checkEdgeCase checks every edge-emulating path on one input against
// the clamped scalar references: the three predictors sample for
// sample, and sadThresh / sadSubpelThresh for the exact (sum, early)
// pair that reference prediction followed by kern.SADThresh returns,
// at thresholds 0, 1, exact/2, exact, exact+1 and thresh. cur must
// hold the bs×bs block at (bx, by); ref may have any size.
func checkEdgeCase(t *testing.T, cur, ref Plane, bx, by int, mv MV, bs int, thresh int64) {
	t.Helper()
	got := make([]uint8, bs*bs)
	want := make([]uint8, bs*bs)
	samePred := func(name string) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s %dx%d from %dx%d plane at (%d,%d) mv=%v [%d]: got %d want %d",
					name, bs, bs, ref.W, ref.H, bx, by, mv, i, got[i], want[i])
			}
		}
	}
	PredictLuma(got, ref, bx, by, mv, bs, bs)
	predictLumaRef(want, ref, bx, by, mv, bs, bs)
	samePred("PredictLuma")
	PredictChroma(got, ref, bx, by, mv, bs, bs)
	predictChromaRef(want, ref, bx, by, mv, bs, bs)
	samePred("PredictChroma")
	var sc Scratch
	PredictLumaSharp(got, ref, bx, by, mv, bs, bs, &sc)
	predictLumaSharpRef(want, ref, bx, by, mv, bs, bs)
	samePred("PredictLumaSharp")

	c := cur.Pix[by*cur.W+bx:]
	sameSAD := func(name string, v MV, sad func(th int64) (int64, bool)) {
		t.Helper()
		predictLumaRef(want, ref, bx, by, v, bs, bs)
		exact, _ := kern.SADThresh(c, cur.W, want, bs, bs, bs, math.MaxInt64)
		for _, th := range []int64{0, 1, exact / 2, exact, exact + 1, thresh} {
			wantSum, wantEarly := kern.SADThresh(c, cur.W, want, bs, bs, bs, th)
			if sum, early := sad(th); sum != wantSum || early != wantEarly {
				t.Fatalf("%s %dx%d from %dx%d plane at (%d,%d) mv=%v th=%d: got (%d, %v) want (%d, %v)",
					name, bs, bs, ref.W, ref.H, bx, by, v, th, sum, early, wantSum, wantEarly)
			}
		}
	}
	rx, ry := bx+int(mv.X>>2), by+int(mv.Y>>2)
	sameSAD("sadThresh", MV{mv.X &^ 3, mv.Y &^ 3}, func(th int64) (int64, bool) {
		return sadThresh(cur, bx, by, ref, rx, ry, bs, bs, th)
	})
	sameSAD("sadSubpelThresh", mv, func(th int64) (int64, bool) {
		return sadSubpelThresh(cur, bx, by, ref, mv, bs, bs, th)
	})
}

// TestEdgePathsFarOutside uses vectors reaching up to four plane widths
// past every edge, as a hostile bitstream can hand the decoder.
func TestEdgePathsFarOutside(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for iter := 0; iter < 2000; iter++ {
		bs := []int{4, 8, 16}[rng.Intn(3)]
		W := bs + 1 + rng.Intn(40)
		H := bs + 1 + rng.Intn(30)
		cur := randPlane(rng, W, H, iter%3)
		ref := randPlane(rng, W, H, (iter+1)%3)
		reach := 4 * 4 * max(W, H)
		mv := MV{int32(rng.Intn(2*reach+1) - reach), int32(rng.Intn(2*reach+1) - reach)}
		checkEdgeCase(t, cur, ref, rng.Intn(W-bs+1), rng.Intn(H-bs+1), mv, bs, rng.Int63n(1<<14))
	}
}

// TestEdgePathsTinyPlanes predicts from reference planes narrower or
// shorter than the block plus one, down to a single sample, so no
// sub-pel window fits inside them in that dimension.
func TestEdgePathsTinyPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for iter := 0; iter < 2000; iter++ {
		bs := []int{4, 8, 16}[rng.Intn(3)]
		W := 1 + rng.Intn(bs+1)
		H := 1 + rng.Intn(bs+1)
		switch iter % 3 {
		case 1:
			W = bs + 1 + rng.Intn(32)
		case 2:
			H = bs + 1 + rng.Intn(32)
		}
		cur := randPlane(rng, bs+8, bs+8, iter%3)
		ref := randPlane(rng, W, H, (iter+1)%3)
		checkEdgeCase(t, cur, ref, rng.Intn(9), rng.Intn(9), randMV(rng, 8), bs, rng.Int63n(1<<14))
	}
}

// FuzzPredictEdge checks the edge-emulating prediction and SAD paths
// against the clamped references for any plane size up to 64×64, block
// position, block size, vector (any int32, as a corrupt bitstream can
// carry) and threshold. seed draws the pixels; bsel picks the block
// size and, divided by three, the reference texture.
func FuzzPredictEdge(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, w, h, bx, by uint8, mvx, mvy int32, bsel uint8, thresh int64) {
		bs := []int{4, 8, 16}[bsel%3]
		W, H := 1+int(w)%64, 1+int(h)%64
		rng := rand.New(rand.NewSource(seed))
		ref := randPlane(rng, W, H, int(bsel/3)%3)
		cur := randPlane(rng, max(W, bs), max(H, bs), 0)
		checkEdgeCase(t, cur, ref, int(bx)%(cur.W-bs+1), int(by)%(cur.H-bs+1), MV{mvx, mvy}, bs, thresh)
	})
}

// smoothPlane samples a low-frequency texture at (x−dx, y−dy). Its SAD
// surface leads a pattern search across many steps, so long walks,
// ring overlaps and revisits all occur.
func smoothPlane(w, h, dx, dy int, fx, fy, phase float64) Plane {
	pix := make([]uint8, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 128 + 60*math.Sin(float64(x-dx)/fx+phase) + 50*math.Cos(float64(y-dy)/fy-phase)
			pix[y*w+x] = uint8(v)
		}
	}
	return Plane{Pix: pix, W: w, H: h}
}

// checkSearch runs Search and searchRef on one input and fails on any
// difference in vector, cost or perf.Counters. It returns the number
// of candidates Search skipped as revisits.
func checkSearch(t *testing.T, cur Plane, bx, by int, ref Plane, pred MV, bs int, p Params) int64 {
	t.Helper()
	var cGot, cWant perf.Counters
	var sc Scratch
	gotMV, gotCost := Search(cur, bx, by, ref, pred, bs, bs, p, &sc, &cGot)
	wantMV, wantCost := searchRef(cur, bx, by, ref, pred, bs, bs, p, &cWant)
	if gotMV != wantMV || gotCost != wantCost {
		t.Fatalf("Search %v range=%d subpel=%d λ=%d %dx%d at (%d,%d) pred=%v, ref %dx%d: got %v/%d want %v/%d",
			p.Kind, p.Range, p.SubPel, p.Lambda, bs, bs, bx, by, pred, ref.W, ref.H, gotMV, gotCost, wantMV, wantCost)
	}
	if cGot != cWant {
		t.Fatalf("Search %v range=%d subpel=%d counters diverged: got %+v want %+v", p.Kind, p.Range, p.SubPel, cGot, cWant)
	}
	return sc.RevisitsSkipped
}

// TestSearchMatchesRefWideRange checks Search against searchRef at the
// ranges the encoder presets use (16–48 pixels), for hex and diamond at
// every sub-pel depth and the exhaustive search at 16, on planes both
// larger and smaller than the search window. The reference is a noisy
// shifted copy of a smooth texture, so searches walk far from the start.
func TestSearchMatchesRefWideRange(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var revisits int64
	for iter := 0; iter < 240; iter++ {
		p := Params{
			Kind:   []SearchKind{SearchHex, SearchDiamond}[iter%2],
			Range:  []int{16, 24, 32, 48}[(iter/2)%4],
			SubPel: (iter / 8) % 3,
			Lambda: int64(rng.Intn(400)),
		}
		if iter%40 == 39 {
			p.Kind, p.Range = SearchFull, 16
		}
		// Every third plane is smaller than the search window.
		W, H := 48+rng.Intn(80), 40+rng.Intn(60)
		if iter%3 == 0 {
			W, H = 16+rng.Intn(p.Range), 16+rng.Intn(p.Range)
		}
		phase := rng.Float64() * 6
		fx, fy := 4+rng.Float64()*12, 4+rng.Float64()*12
		cur := smoothPlane(W, H, 0, 0, fx, fy, phase)
		dx, dy := rng.Intn(2*p.Range+1)-p.Range, rng.Intn(2*p.Range+1)-p.Range
		ref := smoothPlane(W, H, dx, dy, fx, fy, phase)
		for i := range ref.Pix {
			ref.Pix[i] += uint8(rng.Intn(3)) - 1
		}
		bx, by := rng.Intn(W-16+1), rng.Intn(H-16+1)
		pred := randMV(rng, p.Range)
		revisits += checkSearch(t, cur, bx, by, ref, pred, 16, p)
	}
	if revisits == 0 {
		t.Fatal("no search skipped a revisit: the visited-set path went untested")
	}
}

// FuzzSearch checks Search against the verbatim searchRef — vector,
// cost and the whole perf.Counters — for any plane sizes up to 96×96
// (the reference plane may be smaller than the block), block position
// and size, search kind, range (up to 64, the exhaustive search up to
// 12), sub-pel depth, λ and predictor. seed draws the pixels; tex picks
// the textures.
func FuzzSearch(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(40), uint8(40), uint8(40), uint8(10), uint8(12), uint8(0), uint8(16), uint8(2), uint16(40), int16(6), int16(-3), uint8(0))
	f.Add(int64(2), uint8(80), uint8(60), uint8(5), uint8(9), uint8(3), uint8(4), uint8(1), uint8(48), uint8(1), uint16(900), int16(-200), int16(150), uint8(4))
	f.Add(int64(3), uint8(20), uint8(20), uint8(2), uint8(1), uint8(0), uint8(0), uint8(2), uint8(12), uint8(2), uint16(0), int16(9), int16(9), uint8(7))
	f.Add(int64(4), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), int16(-32768), int16(32767), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, cw, ch, rw, rh, bx, by, kind, rng8, subpel uint8, lambda uint16, predX, predY int16, tex uint8) {
		bs := []int{4, 8, 16}[tex%3]
		p := Params{Kind: SearchKind(kind % 3), Range: int(rng8) % 65, SubPel: int(subpel % 3), Lambda: int64(lambda)}
		if p.Kind == SearchFull {
			p.Range %= 13
		}
		rng := rand.New(rand.NewSource(seed))
		cur := randPlane(rng, bs+int(cw)%81, bs+int(ch)%81, int(tex/3)%3)
		ref := randPlane(rng, 1+int(rw)%96, 1+int(rh)%96, int(tex/9)%3)
		checkSearch(t, cur, int(bx)%(cur.W-bs+1), int(by)%(cur.H-bs+1), ref, MV{int32(predX), int32(predY)}, bs, p)
	})
}
