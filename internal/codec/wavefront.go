package codec

import (
	"fmt"
	"sync"

	"vbench/internal/codec/motion"
	"vbench/internal/perf"
)

// Wavefront parallelism: macroblock rows of one slice encode
// concurrently (see DESIGN.md, "Wavefront parallelism").
//
// The dependency rule is "the row above has advanced at least two
// macroblocks": MB (x, r) reads, from row r−1, the reconstruction of
// MBs up to column x+1 (up and up-right intra predictors, including
// the 4×4 up-right samples that reach into the next macroblock) and
// the grid state of columns x−1..x+1 (the median MV predictor). Both
// are final once progress(r−1) ≥ x+2.
//
// Entropy coding cannot be parallelized — the symbol writer's adaptive
// contexts thread through every macroblock of the slice — so the row
// task is split in two: the decision/reconstruction half (decideMB)
// runs wavefront-parallel on per-lane scratch, buffering each row's
// winning candidates; the serialization half (finishRow) replays them
// through the slice's single writer in strict row order. Rows finish
// deciding in row order too (row r's last MB needs the whole of row
// r−1), so the worker that decided row r serializes it as soon as the
// write cursor reaches r — by then it usually already has. Bitstreams
// are byte-identical to the serial path by construction, and the
// golden-digest matrix pins that.
//
// Deadlock-freedom with the shared CPU gate: rows fan out through
// helperJoin, like slices — the slice goroutine (which already
// represents a granted execution context) claims and encodes rows
// itself and never blocks on the gate; helpers join only via
// AcquireOrQuit. Among workers, let r₀ be the smallest
// claimed-but-unfinished row. Every row below r₀ is fully serialized
// (each worker finishes its row — decide, wait for the write cursor,
// serialize — before claiming another), so r₀'s worker can never be
// parked: its upstream row is complete, its lane's previous tenant
// (row r₀−L) is serialized, and the write cursor is at r₀. Progress is
// therefore always possible at any gate capacity.

// waveCoord synchronizes the row workers of one slice-frame: per-row
// decide progress, the claim cursor, and the serialization cursor. One
// instance per slice lives for the whole encode and is reset per
// frame. All fields are guarded by mu; recon/grid/qpGrid accesses are
// ordered by the progress waits, so the concurrent row workers are
// race-free without any atomics in the pixel paths.
type waveCoord struct {
	mu       sync.Mutex
	cond     sync.Cond
	rows     int
	nextRow  int   // next unclaimed row
	written  int   // rows fully serialized (write cursor)
	progress []int // per row: macroblocks decided

	// Schedule-dependent health, reported to telemetry (never to
	// perf.Counters, which must stay deterministic): stalls counts
	// wait episodes (upstream row, lane reuse, or write turn) and
	// workers counts goroutines that decided at least one row.
	stalls  int64
	workers int

	// panicked carries the first row worker panic; every wait bails
	// out on it so the slice goroutine can rethrow after the join.
	panicked interface{}
}

func newWaveCoord(rows int) *waveCoord {
	wc := &waveCoord{rows: rows, progress: make([]int, rows)}
	wc.cond.L = &wc.mu
	return wc
}

// resetFrame rewinds the coordinator for the next frame.
func (wc *waveCoord) resetFrame() {
	for i := range wc.progress {
		wc.progress[i] = 0
	}
	wc.nextRow = 0
	wc.written = 0
	wc.stalls = 0
	wc.workers = 0
	wc.panicked = nil
}

// claim hands out the next undecided row, counting first-time workers
// for the occupancy metric. ok is false when no rows remain (or the
// frame aborted).
//
//vbench:noalloc
func (wc *waveCoord) claim(claimed *bool) (row int, ok bool) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.panicked != nil || wc.nextRow >= wc.rows {
		return 0, false
	}
	row = wc.nextRow
	wc.nextRow++
	if !*claimed {
		*claimed = true
		wc.workers++
	}
	return row, true
}

// advance publishes one more decided macroblock of row and wakes
// waiters.
//
//vbench:noalloc
func (wc *waveCoord) advance(row int) {
	wc.mu.Lock()
	wc.progress[row]++
	wc.cond.Broadcast()
	wc.mu.Unlock()
}

// awaitProgress blocks until row's upstream neighbour has decided at
// least need macroblocks; false means the frame aborted.
//
//vbench:noalloc
func (wc *waveCoord) awaitProgress(row, need int) bool {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.progress[row-1] < need && wc.panicked == nil {
		wc.stalls++
		for wc.progress[row-1] < need && wc.panicked == nil {
			wc.cond.Wait()
		}
	}
	return wc.panicked == nil
}

// awaitWritten blocks until the write cursor reaches n rows; false
// means the frame aborted.
//
//vbench:noalloc
func (wc *waveCoord) awaitWritten(n int) bool {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.written < n && wc.panicked == nil {
		wc.stalls++
		for wc.written < n && wc.panicked == nil {
			wc.cond.Wait()
		}
	}
	return wc.panicked == nil
}

// rowWritten advances the write cursor past one serialized row.
//
//vbench:noalloc
func (wc *waveCoord) rowWritten() {
	wc.mu.Lock()
	wc.written++
	wc.cond.Broadcast()
	wc.mu.Unlock()
}

// abort records a row worker panic and releases every waiter.
func (wc *waveCoord) abort(r interface{}) {
	wc.mu.Lock()
	if wc.panicked == nil {
		wc.panicked = r
	}
	wc.cond.Broadcast()
	wc.mu.Unlock()
}

// waveLane is the reusable per-lane state of one in-flight row: a
// private frameEncoder view (own counters and scratch, no writer), the
// trial scratch, a row-sized winner arena, and the buffered winning
// candidates awaiting serialization. Row r runs on lane r mod L, so a
// lane is reused only after its previous row has been serialized and
// its candidates recycled.
type waveLane struct {
	fe      frameEncoder // decisions run on this view; fe.w is nil
	enc     encScratch   // trial arena + candidate pool + motion buffers
	winners levelArena   // row winners' level storage, reset per row
	cands   []*mbCand    // winning candidate per column
	mvs     []motion.MV
	c       perf.Counters
	tm      stageTimes
}

// newWaveLanes builds n lanes for a slice of width mbW macroblocks.
func newWaveLanes(n, mbW int) []waveLane {
	lanes := make([]waveLane, n)
	for i := range lanes {
		lanes[i].winners.capHint = mbW * candLevelInt32s
		lanes[i].cands = make([]*mbCand, mbW)
		lanes[i].mvs = make([]motion.MV, mbW)
	}
	return lanes
}

// attach points the lane's encoder view at the slice encoder's current
// frame: shared read-mostly state (header, planes, grid, QP grid) is
// copied by value or pointer, while counters, stage clocks, and
// scratch become lane-private. The writer is nilled out — decisions
// must never touch entropy state, and a nil writer turns any such bug
// into an immediate panic.
func (l *waveLane) attach(fe *frameEncoder) {
	l.fe = *fe
	l.fe.w = nil
	l.fe.sc = &l.enc
	l.fe.c = &l.c
	l.fe.tm = nil
	if fe.tm != nil {
		l.fe.tm = &l.tm
	}
	l.fe.lanes = nil
	l.fe.wc = nil
}

// compactLevels copies a winning candidate's live level slices into
// arena a. Trials borrow storage from the lane's per-macroblock trial
// arena, which the next decision resets; the winner must outlive the
// whole row, so its levels move to the row-lifetime winner arena.
//
//vbench:noalloc
func (c *mbCand) compactLevels(a *levelArena) {
	for i, blk := range c.lumaLevels {
		if blk != nil {
			nb := a.take(len(blk))
			copy(nb, blk)
			c.lumaLevels[i] = nb
		}
	}
	for p := 0; p < 2; p++ {
		for i, blk := range c.chromaLevels[p] {
			if blk != nil {
				nb := a.take(len(blk))
				copy(nb, blk)
				c.chromaLevels[p][i] = nb
			}
		}
	}
}

// encodeRowsWave encodes the slice's rows as a wavefront. Called from
// encodeFrame when more than one lane is configured; the slice
// goroutine works alongside up to len(lanes)-1 helpers.
func (fe *frameEncoder) encodeRowsWave(rows int) {
	wc := fe.wc
	wc.resetFrame()
	nLanes := len(fe.lanes)
	if nLanes > rows {
		nLanes = rows
	}
	for i := 0; i < nLanes; i++ {
		fe.lanes[i].attach(fe)
	}

	// Every claimed row belongs to a goroutine the join waits for, so
	// once it returns every row is serialized (or the frame aborted).
	helperJoin(nLanes-1, fe.gateShared, fe.tm, func() { fe.waveWork(nLanes) })
	obsWaveRowStalls.Add(wc.stalls)
	obsWaveOccupancy.Observe(float64(wc.workers))
	if wc.panicked != nil {
		panic(fmt.Sprintf("codec: wavefront row worker: %v", wc.panicked))
	}
}

// waveWork claims and encodes rows until none remain. Helper panics
// are routed through the coordinator so the slice goroutine can
// rethrow them after the join instead of killing the process.
func (fe *frameEncoder) waveWork(nLanes int) {
	defer func() {
		if r := recover(); r != nil {
			fe.wc.abort(r)
		}
	}()
	claimed := false
	for {
		r, ok := fe.wc.claim(&claimed)
		if !ok {
			return
		}
		if !fe.encodeWaveRow(r, nLanes) {
			return
		}
	}
}

// encodeWaveRow is the row task: wait for the lane, decide every
// macroblock under the wavefront dependency, then serialize the row
// when the write cursor arrives. Reports false when the frame aborted.
//
//vbench:noalloc
func (fe *frameEncoder) encodeWaveRow(r, nLanes int) bool {
	wc := fe.wc
	lane := &fe.lanes[r%nLanes]
	// The lane's previous tenant was row r−nLanes; once that row is
	// serialized its candidates are recycled and the winner arena is
	// dead, so the lane is free to rewind.
	if r >= nLanes && !wc.awaitWritten(r-nLanes+1) {
		return false
	}
	lane.winners.reset()
	lfe := &lane.fe
	for x := 0; x < fe.mbW; x++ {
		if r > 0 {
			need := x + 2
			if need > fe.mbW {
				need = fe.mbW
			}
			if !wc.awaitProgress(r, need) {
				return false
			}
		}
		cand, predMV := lfe.decideMB(x, r)
		cand.compactLevels(&lane.winners)
		lane.cands[x] = cand
		lane.mvs[x] = predMV
		wc.advance(r)
	}
	if !wc.awaitWritten(r) {
		return false
	}
	fe.finishRow(lane, r)
	wc.rowWritten()
	return true
}

// finishRow serializes decided row r through the slice's writer, folds
// the lane's work accounting into the slice totals, and deblocks one
// row behind. Callers hold the write turn (written == r), so access to
// the writer and the slice counters is exclusive and in row order —
// which keeps both the bitstream and the merged perf.Counters
// byte-for-byte deterministic — and row r's turn runs the deblocking
// units in the serial order while other lanes decide the rows below:
// unit r−1 writes rows r−2 and r−1, and a deciding row reads only the
// row above it (the slice's last turn adds its own unit, with no row
// left to decide).
func (fe *frameEncoder) finishRow(lane *waveLane, r int) {
	for x := 0; x < fe.mbW; x++ {
		fe.writeCand(lane.cands[x], lane.mvs[x])
		lane.enc.cands.put(lane.cands[x])
		lane.cands[x] = nil
	}
	fe.c.Add(&lane.c)
	lane.c = perf.Counters{}
	if fe.tm != nil {
		fe.tm.add(&lane.tm)
		lane.tm = stageTimes{}
	}
	fe.deblockAfter(r)
}
