package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"vbench/internal/cas"
	"vbench/internal/codec"
	"vbench/internal/codec/hw"
	"vbench/internal/codec/kern"
	"vbench/internal/codec/profiles"
	"vbench/internal/fleet"
	"vbench/internal/telemetry"
)

// runProbes measures every layer by direct calls on fixed small
// inputs, after the window of a traced run. Kernel, cache-store and
// queue probes are the only source of their metrics; the codec, grid
// and fleet probes run one tiny cycle of the corresponding workload
// code, and stand in for the layers the measured workload bypasses
// (see observations). Probe inputs do not depend on the seed.
func runProbes(e *env, rec *recorder) error {
	e.obs.mu.Lock()
	e.obs.probing = true
	e.obs.mu.Unlock()
	pe := &env{seed: 0, nproc: e.nproc, tmp: e.tmp, shrink: e.shrink, obs: e.obs, tally: e.tally}

	probeKernels(pe)
	if err := probeStore(pe); err != nil {
		return err
	}
	if err := probeQueue(pe); err != nil {
		return err
	}
	if err := probeCodec(pe, rec); err != nil {
		return err
	}
	tiny := []struct {
		name  string
		build func(sp *span) (instance, error)
	}{
		{"grid", func(sp *span) (instance, error) {
			return newGrid(pe, sp, []string{"bike"}, []*codec.Engine{hw.NVENC()}, 32, 0.5)
		}},
		{"fleet", func(sp *span) (instance, error) {
			return newFleet(pe, sp, []fleet.JobSpec{
				{Clip: "girl", Encoder: "x264-veryfast", Scale: 32, Duration: 0.5, QP: 30, RowsParallel: 1},
				{Clip: "girl", Encoder: "x264-veryfast", Scale: 32, Duration: 0.5, QP: 32, RowsParallel: 1},
			})
		}},
	}
	for _, p := range tiny {
		sp := rec.root("bench.probe."+p.name, 0, true)
		inst, err := p.build(sp)
		if err != nil {
			sp.finish()
			return fmt.Errorf("%s probe: %w", p.name, err)
		}
		for i := 0; i < pe.reps(3); i++ {
			inst.cycle(&cycle{sp: sp, tally: pe.tally})
		}
		sp.finish()
		if err := inst.close(); err != nil {
			return err
		}
	}
	return nil
}

// perCall times batches of calls to fn and returns the median batch's
// nanoseconds per call.
func perCall(calls int, fn func()) float64 {
	const batches = 7
	per := make([]float64, batches)
	for b := range per {
		t := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		per[b] = float64(time.Since(t)) / float64(calls)
	}
	return median(per)
}

var (
	sinkI64  int64
	sinkBool bool
)

// probeKernels times the codec kernels on fixed buffers, the way
// internal/codec/kern's own benchmarks call them.
func probeKernels(e *env) {
	const stride, h = 64, 64
	rng := rand.New(rand.NewSource(31))
	cur := make([]uint8, stride*h)
	ref := make([]uint8, stride*h)
	rng.Read(cur)
	rng.Read(ref)
	res := make([]int32, 16*16)
	for i := range res {
		res[i] = int32(rng.Intn(511) - 255)
	}
	coeffs := make([]int32, 64)
	scan := make([]int, 64)
	for i := range coeffs {
		coeffs[i] = int32(rng.Intn(1<<15) - 1<<14)
		scan[i] = i
	}
	zz := make([]int32, 64)
	dst := make([]int32, 64)
	pred := make([]uint8, 16*16)

	calls := e.calls(20000)
	ns := func(name string, fn func()) { e.obs.add(name, perCall(calls, fn)) }
	ns("kern.sad16_ns", func() { sinkI64 = kern.SAD(cur, stride, ref, stride, 16, 16) })
	ns("kern.sad16_thresh_ns", func() { sinkI64, sinkBool = kern.SADThresh(cur, stride, ref, stride, 16, 16, 1) })
	ns("kern.satd16_ns", func() { sinkI64 = kern.SATD(res, 16, 16) })
	ns("kern.fdct8_ns", func() { kern.FwdDCT8(res[:64], dst) })
	ns("kern.idct8_ns", func() { kern.InvDCT8(res[:64], dst) })
	ns("kern.quant8_ns", func() { sinkBool = kern.QuantScan(coeffs, zz, scan, 28, 11) })
	ns("kern.bilinear16_ns", func() { kern.PredictBilinear(pred, 16, ref, stride, 4, 4, 4, 4, 8, 4, 16, 16) })
	ns("kern.bilinear_sad16_ns", func() {
		sinkI64, sinkBool = kern.BilinearSADThresh(cur, stride, ref, stride, 4, 4, 4, 4, 8, 4, 16, 16, 1<<40)
	})
}

// probeStore times the cache store's four operations on one real
// entry: key derivation, memory hit, verified disk hit, atomic write.
func probeStore(e *env) error {
	seq, err := genClip(nil, "girl", e.scale(16), 0.4)
	if err != nil {
		return err
	}
	eng := profiles.X264(codec.PresetMedium)
	cfg := codec.Config{RC: codec.RCConstQP, QP: 28}
	out, err := cas.Compute(eng, seq, cfg)
	if err != nil {
		return err
	}
	dir, err := e.tempDir("probe-store-")
	if err != nil {
		return err
	}
	store, err := cas.Open(dir, telemetry.NewRegistry())
	if err != nil {
		return err
	}
	var key cas.Key
	e.obs.add("cas.key_us", perCall(e.calls(20), func() {
		key = cas.KeyParts{Content: cas.ContentDigest(seq), Tools: eng.Tools, Config: cfg, Fingerprint: cas.Fingerprint()}.Key()
	})/1e3)
	var putErr error
	e.obs.add("cas.put_us", perCall(e.calls(50), func() {
		if err := store.Put(key, out); err != nil {
			putErr = err
		}
	})/1e3)
	if putErr != nil {
		return putErr
	}
	hit := true
	e.obs.add("cas.get_disk_us", perCall(e.calls(50), func() {
		store.EvictMem()
		_, ok := store.Get(key)
		hit = hit && ok
	})/1e3)
	e.obs.add("cas.get_mem_us", perCall(e.calls(2000), func() {
		_, ok := store.Get(key)
		hit = hit && ok
	})/1e3)
	e.tally.check(hit, "store probe: a lookup of a stored key missed")
	return nil
}

// probeQueue times direct Queue calls on a scratch queue of 1 000
// noop jobs, and a snapshot of it.
func probeQueue(e *env) error {
	o := e.obs
	n := max(e.calls(1000), 8)
	q := fleet.NewQueue(fleet.Options{Metrics: telemetry.NewRegistry()})
	t := time.Now()
	for i := 0; i < n; i++ {
		if _, err := q.Submit(fleet.JobSpec{Kind: fleet.KindNoop}); err != nil {
			return err
		}
	}
	o.add("fleet.queue_submit_us", us(time.Since(t))/float64(n))
	jobs := make([]fleet.Job, 0, n)
	t = time.Now()
	for i := 0; i < n/2; i++ {
		j, ok := q.Lease("probe")
		if !ok {
			return fmt.Errorf("queue probe: lease %d of %d refused", i, n/2)
		}
		jobs = append(jobs, j)
	}
	o.add("fleet.queue_lease_us", us(time.Since(t))/float64(n/2))
	// Snapshot a queue holding pending, leased and done jobs.
	t = time.Now()
	for _, j := range jobs[:n/4] {
		if _, err := q.Complete(j.ID, j.Attempt, "probe", fleet.Result{}); err != nil {
			return err
		}
	}
	o.add("fleet.queue_complete_us", us(time.Since(t))/float64(n/4))
	var snapErr error
	snap := perCall(1, func() {
		if err := q.Snapshot(io.Discard); err != nil {
			snapErr = err
		}
	})
	o.add("fleet.snapshot_ms", snap/1e6)
	return snapErr
}

// probeCodec encodes one fixed clip (hall, the highest-entropy
// 1080p-class clip, at the wavefront workload's size) three ways —
// serial rows, one wavefront lane per core, one slice per core — and
// decodes it, as a cycle of the encode workloads' own code. The
// speed-up metrics are serial time over parallel time for this op.
func probeCodec(e *env, rec *recorder) error {
	sp := rec.root("bench.probe.codec", 0, true)
	defer sp.finish()
	seq, err := genClip(sp, "hall", e.scale(6), 0.5)
	if err != nil {
		return err
	}
	eng := profiles.X264(codec.PresetMedium)
	n := lanes(e.nproc)
	variants := []struct {
		name string
		cfg  codec.Config
	}{
		{"codec.probe_serial_ms", codec.Config{RC: codec.RCConstQP, QP: 28, Slices: 1, RowsParallel: 1}},
		{"codec.probe_wave_ms", codec.Config{RC: codec.RCConstQP, QP: 28, Slices: 1, RowsParallel: n}},
		{"codec.probe_slice_ms", codec.Config{RC: codec.RCConstQP, QP: 28, Slices: n, RowsParallel: 1}},
	}
	for _, v := range variants {
		in := &encodeInst{e: e, main: []*encOp{{label: "probe/" + v.name, seq: seq, eng: eng, cfg: v.cfg}}, order: []int{0}}
		for i := 0; i < e.reps(3); i++ {
			cy := &cycle{sp: sp, tally: e.tally}
			in.cycle(cy)
			e.obs.add(v.name, ms(cy.main))
		}
	}
	return nil
}
