package motion

import (
	"testing"

	"vbench/internal/perf"
	"vbench/internal/rng"
)

// makePlane builds a textured test plane.
func makePlane(w, h int, seed uint64) Plane {
	r := rng.New(seed)
	pix := make([]uint8, w*h)
	for i := range pix {
		pix[i] = uint8(r.Intn(256))
	}
	return Plane{Pix: pix, W: w, H: h}
}

// shiftPlane returns src translated by (dx, dy) with edge replication.
func shiftPlane(src Plane, dx, dy int) Plane {
	dst := Plane{Pix: make([]uint8, src.W*src.H), W: src.W, H: src.H}
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			dst.Pix[y*src.W+x] = src.clampedSample(x-dx, y-dy)
		}
	}
	return dst
}

func TestSADIdenticalBlocksIsZero(t *testing.T) {
	p := makePlane(64, 64, 1)
	if got := SAD(p, 16, 16, p, 16, 16, 16, 16); got != 0 {
		t.Errorf("SAD of identical blocks = %d", got)
	}
}

func TestSADKnownValue(t *testing.T) {
	a := Plane{Pix: make([]uint8, 64), W: 8, H: 8}
	b := Plane{Pix: make([]uint8, 64), W: 8, H: 8}
	for i := range a.Pix {
		a.Pix[i] = 10
		b.Pix[i] = 13
	}
	if got := SAD(a, 0, 0, b, 0, 0, 8, 8); got != 3*64 {
		t.Errorf("SAD = %d, want %d", got, 3*64)
	}
}

func TestSADClampsOutOfBounds(t *testing.T) {
	p := makePlane(32, 32, 2)
	// Should not panic and equals comparing against the edge-replicated
	// block.
	got := SAD(p, 0, 0, p, -5, -5, 16, 16)
	var want int64
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			d := int(p.Pix[y*32+x]) - int(p.clampedSample(x-5, y-5))
			if d < 0 {
				d = -d
			}
			want += int64(d)
		}
	}
	if got != want {
		t.Errorf("clamped SAD = %d, want %d", got, want)
	}
}

func TestPredictLumaIntegerVectorCopies(t *testing.T) {
	p := makePlane(64, 64, 3)
	dst := make([]uint8, 256)
	PredictLuma(dst, p, 16, 16, MV{X: 8, Y: -4}, 16, 16) // (+2, −1) integer
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			want := p.clampedSample(16+x+2, 16+y-1)
			if dst[y*16+x] != want {
				t.Fatalf("(%d,%d): got %d want %d", x, y, dst[y*16+x], want)
			}
		}
	}
}

func TestPredictLumaHalfPelAverages(t *testing.T) {
	// A plane with a horizontal ramp: half-pel shift must land midway.
	p := Plane{Pix: make([]uint8, 32*32), W: 32, H: 32}
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			p.Pix[y*32+x] = uint8(x * 8)
		}
	}
	dst := make([]uint8, 16)
	PredictLuma(dst, p, 8, 8, MV{X: 2, Y: 0}, 4, 4) // +0.5 px horizontally
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			a := int(p.Pix[(8+y)*32+8+x])
			b := int(p.Pix[(8+y)*32+8+x+1])
			want := (a + b + 1) / 2
			got := int(dst[y*4+x])
			if got < want-1 || got > want+1 {
				t.Fatalf("half-pel (%d,%d): got %d want ≈%d", x, y, got, want)
			}
		}
	}
}

func TestPredictChromaIntegerVector(t *testing.T) {
	p := makePlane(32, 32, 5)
	dst := make([]uint8, 64)
	// mv = (16, 8) quarter-pel luma = (2, 1) integer chroma pixels.
	PredictChroma(dst, p, 8, 8, MV{X: 16, Y: 8}, 8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			want := p.clampedSample(8+x+2, 8+y+1)
			if dst[y*8+x] != want {
				t.Fatalf("(%d,%d): got %d want %d", x, y, dst[y*8+x], want)
			}
		}
	}
}

func searchFindsShift(t *testing.T, kind SearchKind, dx, dy int) {
	t.Helper()
	ref := makeSmooth(96, 96, 77)
	// Content moves by (+dx, +dy) from ref to cur, so the motion
	// vector (which points from the current block into the reference)
	// is (−dx, −dy).
	cur := shiftPlane(ref, dx, dy)
	var c perf.Counters
	p := Params{Kind: kind, Range: 12, SubPel: 0, Lambda: 0}
	mv, _ := Search(cur, 32, 32, ref, MV{}, 16, 16, p, nil, &c)
	if int(mv.X/4) != -dx || int(mv.Y/4) != -dy {
		t.Errorf("%v search: found (%d,%d), want (%d,%d)", kind, mv.X/4, mv.Y/4, -dx, -dy)
	}
	if c.Ops[perf.KSAD] == 0 {
		t.Error("search recorded no SAD work")
	}
}

// makeSmooth builds a smooth low-frequency plane on which block
// matching has an unambiguous optimum.
func makeSmooth(w, h int, seed uint64) Plane {
	r := rng.New(seed)
	base := make([]int, 16*16)
	for i := range base {
		base[i] = r.Intn(256)
	}
	pix := make([]uint8, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			gx, gy := x/8, y/8
			fx, fy := x%8, y%8
			v00 := base[(gy%16)*16+gx%16]
			v10 := base[(gy%16)*16+(gx+1)%16]
			v01 := base[((gy+1)%16)*16+gx%16]
			v11 := base[((gy+1)%16)*16+(gx+1)%16]
			top := v00*(8-fx) + v10*fx
			bot := v01*(8-fx) + v11*fx
			pix[y*w+x] = uint8((top*(8-fy) + bot*fy) / 64)
		}
	}
	return Plane{Pix: pix, W: w, H: h}
}

func TestFullSearchFindsExactShift(t *testing.T) {
	searchFindsShift(t, SearchFull, 5, -3)
	searchFindsShift(t, SearchFull, -7, 2)
}

func TestDiamondSearchFindsShift(t *testing.T) {
	searchFindsShift(t, SearchDiamond, 4, -2)
}

func TestHexSearchFindsShift(t *testing.T) {
	searchFindsShift(t, SearchHex, 3, 3)
}

func TestFullSearchCostsMoreThanDiamond(t *testing.T) {
	ref := makeSmooth(96, 96, 9)
	cur := shiftPlane(ref, 3, 1)
	var cFull, cDia perf.Counters
	Search(cur, 32, 32, ref, MV{}, 16, 16, Params{Kind: SearchFull, Range: 12}, nil, &cFull)
	Search(cur, 32, 32, ref, MV{}, 16, 16, Params{Kind: SearchDiamond, Range: 12}, nil, &cDia)
	if cFull.Ops[perf.KSAD] <= cDia.Ops[perf.KSAD]*2 {
		t.Errorf("full search ops (%d) not ≫ diamond ops (%d)", cFull.Ops[perf.KSAD], cDia.Ops[perf.KSAD])
	}
}

func TestSubPelRefinementImprovesSAD(t *testing.T) {
	// Construct a reference whose best match is at a half-pel offset:
	// current = average of two neighbouring columns.
	ref := makeSmooth(96, 96, 13)
	cur := Plane{Pix: make([]uint8, 96*96), W: 96, H: 96}
	for y := 0; y < 96; y++ {
		for x := 0; x < 95; x++ {
			cur.Pix[y*96+x] = uint8((int(ref.Pix[y*96+x]) + int(ref.Pix[y*96+x+1]) + 1) / 2)
		}
	}
	var c perf.Counters
	mvInt, _ := Search(cur, 32, 32, ref, MV{}, 16, 16, Params{Kind: SearchFull, Range: 4, SubPel: 0}, nil, &c)
	mvHalf, _ := Search(cur, 32, 32, ref, MV{}, 16, 16, Params{Kind: SearchFull, Range: 4, SubPel: 2}, nil, &c)
	sadInt := PredSAD(cur, 32, 32, ref, mvInt, 16, 16, &c)
	sadHalf := PredSAD(cur, 32, 32, ref, mvHalf, 16, 16, &c)
	if sadHalf > sadInt {
		t.Errorf("sub-pel refinement worsened SAD: %d > %d", sadHalf, sadInt)
	}
	if mvHalf.X&3 == 0 && mvHalf.Y&3 == 0 {
		t.Logf("note: refinement stayed at integer position %v", mvHalf)
	}
}

func TestMedianMV(t *testing.T) {
	cases := []struct {
		a, b, c, want MV
	}{
		{MV{0, 0}, MV{0, 0}, MV{0, 0}, MV{0, 0}},
		{MV{1, 5}, MV{2, 4}, MV{3, 3}, MV{2, 4}},
		{MV{-4, 0}, MV{8, 8}, MV{0, 2}, MV{0, 2}},
		{MV{7, -7}, MV{7, -7}, MV{1, 1}, MV{7, -7}},
	}
	for _, tc := range cases {
		if got := MedianMV(tc.a, tc.b, tc.c); got != tc.want {
			t.Errorf("MedianMV(%v,%v,%v) = %v, want %v", tc.a, tc.b, tc.c, got, tc.want)
		}
	}
}

func TestSearchRespectsRange(t *testing.T) {
	ref := makePlane(128, 128, 21)
	cur := shiftPlane(ref, 20, 0) // shift beyond range
	var c perf.Counters
	mv, _ := Search(cur, 48, 48, ref, MV{}, 16, 16, Params{Kind: SearchFull, Range: 8, SubPel: 2}, nil, &c)
	if mv.X/4 > 8 || mv.X/4 < -8 || mv.Y/4 > 8 || mv.Y/4 < -8 {
		t.Errorf("search returned out-of-range vector %v", mv)
	}
}

func TestLambdaPenalizesLongVectors(t *testing.T) {
	// On a flat plane all SADs are equal; with a rate penalty the
	// search must return the predictor (here zero).
	p := Plane{Pix: make([]uint8, 64*64), W: 64, H: 64}
	for i := range p.Pix {
		p.Pix[i] = 100
	}
	var c perf.Counters
	mv, _ := Search(p, 24, 24, p, MV{}, 16, 16, Params{Kind: SearchFull, Range: 6, Lambda: 160}, nil, &c)
	if mv.X != 0 || mv.Y != 0 {
		t.Errorf("flat-plane search with rate penalty returned %v, want (0,0)", mv)
	}
}

func TestSharpInterpFullPelMatchesCopy(t *testing.T) {
	p := makePlane(64, 64, 31)
	a := make([]uint8, 256)
	b := make([]uint8, 256)
	mv := MV{X: 8, Y: -12} // integer vector
	PredictLuma(a, p, 24, 24, mv, 16, 16)
	PredictLumaSharp(b, p, 24, 24, mv, 16, 16, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("full-pel sharp prediction differs at %d", i)
		}
	}
}

func TestSharpInterpHalfPelNearBilinear(t *testing.T) {
	// On a smooth ramp the 4-tap kernel and bilinear agree closely.
	p := Plane{Pix: make([]uint8, 64*64), W: 64, H: 64}
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			p.Pix[y*64+x] = uint8(2*x + y)
		}
	}
	a := make([]uint8, 64)
	b := make([]uint8, 64)
	mv := MV{X: 2, Y: 2}
	PredictLuma(a, p, 24, 24, mv, 8, 8)
	PredictLumaSharp(b, p, 24, 24, mv, 8, 8, nil)
	for i := range a {
		d := int(a[i]) - int(b[i])
		if d < -2 || d > 2 {
			t.Fatalf("ramp half-pel diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSharpInterpSharperOnTexture(t *testing.T) {
	// On alternating columns (Nyquist) a quarter-pel shift attenuates
	// the signal; the 4-tap kernel must keep strictly more energy than
	// bilinear (its raison d'être). Half-pel is excluded: at exactly
	// half a sample, Nyquist energy is zero for every symmetric filter.
	p := Plane{Pix: make([]uint8, 64*64), W: 64, H: 64}
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			if x%2 == 0 {
				p.Pix[y*64+x] = 80
			} else {
				p.Pix[y*64+x] = 180
			}
		}
	}
	bi := make([]uint8, 64)
	sh := make([]uint8, 64)
	mv := MV{X: 1, Y: 0} // quarter-pel
	PredictLuma(bi, p, 24, 24, mv, 8, 8)
	PredictLumaSharp(sh, p, 24, 24, mv, 8, 8, nil)
	variance := func(xs []uint8) float64 {
		var s, ss float64
		for _, v := range xs {
			s += float64(v)
			ss += float64(v) * float64(v)
		}
		n := float64(len(xs))
		return ss/n - (s/n)*(s/n)
	}
	if variance(sh) <= variance(bi) {
		t.Errorf("4-tap kernel did not preserve more texture: var %0.1f vs %0.1f",
			variance(sh), variance(bi))
	}
}

func TestSharpInterpEdgeClamped(t *testing.T) {
	// Vectors pointing far outside the frame must not panic and must
	// produce valid samples.
	p := makePlane(32, 32, 41)
	dst := make([]uint8, 256)
	for _, mv := range []MV{{X: -200, Y: -200}, {X: 300, Y: 300}, {X: -199, Y: 299}} {
		PredictLumaSharp(dst, p, 0, 0, mv, 16, 16, nil)
	}
}
