package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"vbench/internal/cas"
	"vbench/internal/codec"
	"vbench/internal/codec/hw"
	"vbench/internal/corpus"
	"vbench/internal/harness"
	"vbench/internal/scoring"
	"vbench/internal/telemetry"
)

// gridCell is one (clip, encoder) cell of the VOD grid.
type gridCell struct {
	clip corpus.Clip
	eng  *codec.Engine
}

// cellResult is what a cell evaluation must reproduce on every pass.
type cellResult struct {
	score scoring.Score
	m     scoring.Measurement
	sha   [sha256.Size]byte
}

// gridInst evaluates a reduced VOD grid through the harness with the
// transcode cache behind it.
type gridInst struct {
	e       *env
	clips   []corpus.Clip
	cells   []gridCell
	scale   int
	seconds float64
	pix     int64 // source luma pixels of the cells' clips

	// Fixed by the first cold pass.
	ref      []cellResult
	encodes  int64
	bitrate  float64
	psnr     float64
	recorded bool
}

// buildGridCache: {bike 0.9, holi 7.0 bit/pixel/s} × {QSV, NVENC},
// quality-constrained bisection against the two-pass VOD reference,
// scale 16, one second — 32 encodes a cold pass. The cell order is
// fixed, encoder-major with the costlier encoder first, which is
// longest cell first: with a pool, the pass's wall time depends on
// which worker is left with the last cell, so the seed must not choose
// the order.
func buildGridCache(e *env, sp *span) (instance, error) {
	return newGrid(e, sp, []string{"bike", "holi"}, []*codec.Engine{hw.QSV(), hw.NVENC()}, e.scale(16), 1)
}

func newGrid(e *env, sp *span, clips []string, engines []*codec.Engine, scale int, seconds float64) (*gridInst, error) {
	g := &gridInst{e: e, scale: scale, seconds: seconds}
	for _, name := range clips {
		c, err := corpus.ClipByName(name)
		if err != nil {
			return nil, err
		}
		// The Runner synthesises its own copy on every pass; this one
		// is for the pixel count.
		seq, err := genClip(sp, name, scale, seconds)
		if err != nil {
			return nil, err
		}
		g.clips = append(g.clips, c)
		g.pix += seq.PixelCount() * int64(len(engines))
	}
	for _, eng := range engines {
		for _, c := range g.clips {
			g.cells = append(g.cells, gridCell{clip: c, eng: eng})
		}
	}
	return g, nil
}

// pass runs the grid once on a fresh Runner over store: first the
// per-clip sequences and references, then the cells, each phase
// fanned out over a pool of one worker per core. Span names of the
// reference and cell calls carry suffix, so that the cold pass's
// (which encode) and the warm pass's (which do not) stay apart.
func (g *gridInst) pass(parent *span, store *cas.Store, suffix string) (out []cellResult, encodes int64, busyRatio float64, err error) {
	r := harness.NewRunner(g.scale, g.seconds)
	r.Cache = store
	pool := harness.NewPool(g.e.nproc)
	t := time.Now()
	err = pool.ForEach(len(g.clips), func(i int) error {
		c := g.clips[i]
		sp := parent.childLane("harness.sequence", i+1)
		_, err := r.Sequence(c)
		sp.finish()
		if err != nil {
			return err
		}
		sp = parent.childLane("harness.reference"+suffix, i+1)
		_, err = r.Reference(scoring.VOD, c)
		sp.finish()
		return err
	})
	if err != nil {
		return nil, r.Encodes(), 0, err
	}
	out = make([]cellResult, len(g.cells))
	err = pool.ForEach(len(g.cells), func(i int) error {
		c := g.cells[i]
		sp := parent.childLane("harness.cell"+suffix, i+1)
		score, m, err := r.EvaluateQualityConstrained(scoring.VOD, c.clip, c.eng, codec.RCBitrate)
		sp.finish()
		if err != nil {
			return err
		}
		if m == nil {
			return fmt.Errorf("%s/%s: no bitrate meets the reference quality: %s", c.clip.Name, c.eng.Tools.Name, score.Reason)
		}
		out[i] = cellResult{score: score, m: m.Measurement, sha: sha256.Sum256(m.Result.Bitstream)}
		return nil
	})
	wall := time.Since(t)
	var busy time.Duration
	for _, s := range pool.Stats() {
		busy += s.Busy
	}
	return out, r.Encodes(), ratio(float64(busy), float64(wall)*float64(pool.Workers())), err
}

func (g *gridInst) cycle(cy *cycle) {
	dir, err := g.e.tempDir("grid-")
	if err != nil {
		cy.tally.fail("grid: temp dir: %v", err)
		return
	}
	defer func() {
		timed(cy.sp, "bench.reset", func() { os.RemoveAll(dir) })
	}()

	// Main: the cold pass. Fresh Runner, fresh empty store: every
	// lookup misses, encodes, and writes its entry.
	sp := cy.sp.child("bench.grid.cold")
	t := time.Now()
	store, err := cas.Open(dir, telemetry.NewRegistry())
	if err != nil {
		sp.finish()
		cy.tally.fail("grid: opening store: %v", err)
		return
	}
	cold, encodes, busy, err := g.pass(sp, store, "")
	cy.main = time.Since(t)
	sp.finish()
	if err != nil {
		cy.tally.fail("grid: cold pass: %v", err)
		return
	}
	if !g.recorded {
		g.record(cold, encodes)
	}
	g.verify(cy, "cold", cold)
	cy.tally.check(encodes == g.encodes, "grid: cold pass made %d encodes, the first made %d", encodes, g.encodes)
	cy.pix = g.pix
	written := store.Stats().BytesWritten

	// Aux: the warm pass. Fresh Runner on the same store with the
	// memory tier dropped: every lookup is a disk hit, no encode runs.
	store.EvictMem()
	sp = cy.sp.child("bench.grid.warm")
	t = time.Now()
	warm, encodes, _, err := g.pass(sp, store, "_warm")
	cy.aux = time.Since(t)
	sp.finish()
	if err != nil {
		cy.tally.fail("grid: warm pass: %v", err)
		return
	}
	g.verify(cy, "warm", warm)
	cy.tally.check(encodes == 0, "grid: warm pass made %d encodes, want 0", encodes)

	st := store.Stats()
	g.e.obs.add("harness.pool_busy_ratio", busy)
	g.e.obs.add("harness.encodes_per_pass", float64(g.encodes))
	g.e.obs.add("cas.hits", float64(st.MemHits+st.DiskHits))
	g.e.obs.add("cas.lookups", float64(st.MemHits+st.DiskHits+st.Misses))
	g.e.obs.add("cas.disk_kb_per_pass", float64(written)/1024)
}

func (g *gridInst) record(first []cellResult, encodes int64) {
	g.ref, g.encodes, g.recorded = first, encodes, true
	for _, c := range first {
		g.bitrate += c.m.BitratePPS
		g.psnr += c.m.PSNR
	}
	g.bitrate /= float64(len(first))
	g.psnr /= float64(len(first))
}

func (g *gridInst) verify(cy *cycle, pass string, got []cellResult) {
	for i, c := range g.cells {
		cy.tally.check(got[i] == g.ref[i], "grid: %s pass: %s/%s differs from the first pass", pass, c.clip.Name, c.eng.Tools.Name)
	}
}

func (g *gridInst) quality() (float64, float64) { return g.bitrate, g.psnr }

func (g *gridInst) close() error { return nil }
