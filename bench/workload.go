package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// workloadDef describes one workload of the benchmark. Names, reasons
// and order must match BENCHMARK.json (bench_test.go checks).
type workloadDef struct {
	name string
	why  string
	// serial workloads run at GOMAXPROCS 1, the others at one P per
	// core; never more busy threads than cores.
	serial bool
	// warmup is the fixed number of untimed cycles that set-up runs,
	// sized so that setup_s is at least a second of deterministic work.
	warmup int
	// build synthesises the inputs from the seed and prepares the
	// state the cycles run on; sp is the set-up span.
	build func(e *env, sp *span) (instance, error)
}

// instance is the built state of a workload. A cycle runs the op
// list's main ops, then its aux ops (the same layer used the other
// way), verifies every output, and is one sample of each timing.
type instance interface {
	cycle(cy *cycle)
	// quality is the op list's mean bitrate and PSNR, fixed by the
	// first cycle: exact for a given op list.
	quality() (bitrateBPPS, psnrDB float64)
	close() error
}

var workloads = []workloadDef{
	{
		name:   "encode_serial",
		why:    "codec and kernels do all the work on one core; harness, cas, fleet and wavefront do none, so a kernel or stage gain must show here first",
		serial: true,
		warmup: 3,
		build:  buildEncodeSerial,
	},
	{
		name:   "encode_wavefront",
		why:    "wavefront rows (main) beside slice fan-out (aux) on 1080p-class clips at every core; the serial entropy and rate-control fraction binds here",
		warmup: 3,
		build:  buildEncodeWavefront,
	},
	{
		name:   "grid_cache",
		why:    "harness, scoring, metrics and cas carry a VOD grid: cold pass misses, encodes and writes (main), warm pass reads disk hits with zero encodes (aux)",
		warmup: 5,
		build:  buildGridCache,
	},
	{
		name:   "fleet_batch",
		why:    "queue, lease and ack RPCs, metric push and master dedup are on the critical path: a batch over loopback HTTP (main), then resubmitted for dedup (aux)",
		warmup: 3,
		build:  buildFleetBatch,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// env is what a workload instance is built from.
type env struct {
	seed   int64
	nproc  int    // cores the workload may keep busy
	tmp    string // scratch directory inside the benchmark's out dir
	shrink int    // 1, or the smoke test's divisor of every clip's size
	obs    *observations
	tally  *tally
}

// scale is the resolution divisor a clip is synthesised at.
func (e *env) scale(s int) int { return s * e.shrink }

// calls is how many calls a probe times in one batch, and reps how
// many cycles a tiny-workload probe runs; the smoke test's shrink cuts
// both.
func (e *env) calls(n int) int { return max(n/(e.shrink*e.shrink*e.shrink), 1) }

func (e *env) reps(n int) int {
	if e.shrink > 1 {
		return 1
	}
	return n
}

// order is the seed's permutation of n op indices.
func (e *env) order(n int) []int {
	return rand.New(rand.NewSource(e.seed)).Perm(n)
}

// tempDir makes a fresh directory under the scratch directory.
func (e *env) tempDir(pattern string) (string, error) {
	return os.MkdirTemp(e.tmp, pattern)
}

// tally counts operations attempted and failed. A failed operation is
// one that returned an error or whose output did not verify.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	firstErr  string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
	t.mu.Unlock()
}

// check counts one operation: failed with the formatted reason when
// cond is false.
func (t *tally) check(cond bool, format string, args ...any) bool {
	if cond {
		t.ok()
	} else {
		t.fail(format, args...)
	}
	return cond
}

// cycle is one pass over a workload's op list.
type cycle struct {
	sp    *span // nil when this cycle is not traced
	main  time.Duration
	aux   time.Duration
	pix   int64 // source luma pixels of the successful main ops
	tally *tally
}

// observations collects the per-layer samples and counts of a traced
// run. Every layer is observed twice: by the workload's own cycles,
// where it exercises the layer, and by a fixed tiny probe of each
// layer that every traced run makes after the window. A metric is
// computed from the workload's observations when it has any and from
// the probe's otherwise, so a bypassed layer still reports a real
// measurement. A nil *observations ignores everything (untraced run).
type observations struct {
	mu      sync.Mutex
	probing bool
	work    map[string][]float64
	probe   map[string][]float64
}

func newObservations() *observations {
	return &observations{work: map[string][]float64{}, probe: map[string][]float64{}}
}

// add records one observation made by the code now running: a
// workload cycle, or a probe once probing is set.
func (o *observations) add(name string, v float64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.put(o.probing, name, v)
	o.mu.Unlock()
}

// put files one observation under the workload's or the probe's.
// Callers hold o.mu or own o.
func (o *observations) put(probe bool, name string, v float64) {
	if probe {
		o.probe[name] = append(o.probe[name], v)
	} else {
		o.work[name] = append(o.work[name], v)
	}
}

// get returns the workload's samples for name, or the probe's when
// the workload made none.
func (o *observations) get(name string) []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if v := o.work[name]; len(v) > 0 {
		return v
	}
	return o.probe[name]
}

// runResult is everything one run measured.
type runResult struct {
	workload           string
	setups             []float64 // seconds, one per set-up repetition
	mainMS, auxMS      []float64 // one sample per cycle of the window
	pixPerCycle        int64
	bitrate, psnr      float64
	attempted, failed  int64
	firstErr           string
	tracedMain, plainM []float64 // traced run: main samples by kind of cycle
	spinMS             []float64 // the reference spin, once before every cycle
	mem                memDelta
	ts                 *traceSummary
	obs                *observations
	tracePath          string
}

// memDelta is the Go runtime's accounting over the window.
type memDelta struct {
	mallocs, allocBytes uint64
	gcPause             time.Duration
	rssPeakMB           float64
}

// runOptions parameterise one run.
type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// setups is how many times set-up is repeated (setup_s is their
	// median); warmup overrides the workload's warm-up cycle count
	// when non-negative; shrink above 1 divides every clip's linear
	// size. Only the smoke test, which runs under the race detector,
	// lowers the first two and raises the third.
	setups int
	warmup int
	shrink int
}

// run executes one workload: repeated set-up, the timed window of
// whole cycles with the reference spin before each, and (traced) the
// layer probes.
func run(opt runOptions) (*runResult, error) {
	def, ok := workloadByName(opt.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	nproc := runtime.NumCPU()
	if def.serial {
		nproc = 1
	}
	prev := runtime.GOMAXPROCS(nproc)
	defer runtime.GOMAXPROCS(prev)

	tmp, err := os.MkdirTemp(opt.outDir, "tmp-"+def.name+"-")
	if err != nil {
		return nil, fmt.Errorf("making scratch dir (is %s there?): %w", opt.outDir, err)
	}
	defer os.RemoveAll(tmp)

	res := &runResult{workload: def.name}
	e := &env{seed: opt.seed, nproc: nproc, tmp: tmp, shrink: max(opt.shrink, 1), tally: &tally{}}
	var rec *recorder
	if opt.trace {
		rec = newRecorder()
		e.obs = newObservations()
		res.obs = e.obs
	}
	warmup := def.warmup
	if opt.warmup >= 0 {
		warmup = opt.warmup
	}

	// Set-up, repeated: clip synthesis, state, and the warm-up cycles.
	// The first cycle of each fixes the reference outputs every later
	// cycle is verified against, and the quality metrics.
	var inst instance
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	for i := 0; i < opt.setups; i++ {
		if inst != nil {
			err := inst.close()
			inst = nil
			if err != nil {
				return nil, err
			}
		}
		rec.enable(i == opt.setups-1)
		sp := rec.root("bench.setup", -1-i, false)
		t := time.Now()
		built, err := def.build(e, sp)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		inst = built
		for c := 0; c < max(warmup, 1); c++ {
			cy := &cycle{sp: sp.child("bench.warmup"), tally: e.tally}
			inst.cycle(cy)
			cy.sp.finish()
			res.pixPerCycle = cy.pix
		}
		res.setups = append(res.setups, time.Since(t).Seconds())
		sp.finish()
	}
	res.bitrate, res.psnr = inst.quality()

	// The timed window: whole cycles until the time is up. In a traced
	// run every other cycle records spans, so the same run yields the
	// tracing overhead.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	window := time.Duration(opt.seconds * float64(time.Second))
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < window; n++ {
		traced := opt.trace && n%2 == 0
		rec.enable(traced)
		res.spinMS = append(res.spinMS, ms(spin()))
		cy := &cycle{sp: rec.root("bench.cycle", n, false), tally: e.tally}
		inst.cycle(cy)
		cy.sp.finish()
		res.mainMS = append(res.mainMS, ms(cy.main))
		res.auxMS = append(res.auxMS, ms(cy.aux))
		if traced {
			res.tracedMain = append(res.tracedMain, ms(cy.main))
		} else {
			res.plainM = append(res.plainM, ms(cy.main))
		}
	}
	runtime.ReadMemStats(&m1)
	res.mem = memDelta{
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		rssPeakMB:  rssPeakMB(),
	}
	err = inst.close()
	inst = nil
	if err != nil {
		return nil, err
	}

	if opt.trace {
		rec.enable(true)
		if err := runProbes(e, rec); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		rec.enable(false)
		spans := rec.closed()
		res.ts = summarize(spans, e.obs)
		res.tracePath = filepath.Join(opt.outDir, "trace-"+def.name+".json")
		if err := writeChromeTrace(res.tracePath, spans); err != nil {
			return nil, err
		}
	}

	res.attempted, res.failed, res.firstErr = e.tally.attempted, e.tally.failed, e.tally.firstErr
	return res, nil
}

// spin times a fixed integer loop: the reference computation every
// timing of the run is expressed against. It does no memory traffic
// and calls into no layer, so when it takes longer, the host is
// slower, not the code. On this shared two-core host the clock speed
// a process gets drifts by ±5% over minutes, and a whole run drifts
// with it; dividing by the run's median spin removes that share of
// the run-to-run noise (see hostFactor).
func spin() time.Duration {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return time.Since(t)
}

const (
	spinIters = 4_000_000
	// spinNominalMS is what the spin takes on the reference host (the
	// builder's, 2 ns an iteration): times are reported as if the host
	// ran at that speed, so they stay readable as milliseconds.
	spinNominalMS = 8.0
)

var spinSink uint64

// hostFactor is how much slower than the reference host this run's
// host was: the median spin over the nominal spin. Reported timings
// are wall time divided by it.
func (r *runResult) hostFactor() float64 {
	if len(r.spinMS) == 0 {
		return 1
	}
	return median(r.spinMS) / spinNominalMS
}
