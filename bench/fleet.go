package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vbench/internal/cas"
	"vbench/internal/fleet"
	"vbench/internal/metrics"
	"vbench/internal/telemetry"
	"vbench/internal/video"
)

// resubmits is how many times the aux ops resubmit the batch.
const resubmits = 96

// jobRef is what a job of the batch must reproduce on every cycle.
type jobRef struct {
	bytes int64
	psnr  float64
	sha   [sha256.Size]byte
}

// fleetInst pushes a batch of encode jobs through an in-process
// loopback fleet: a master queue behind an HTTP listener on 127.0.0.1
// and one pull worker per core.
type fleetInst struct {
	e      *env
	specs  []fleet.JobSpec
	seqs   []*video.Sequence // each job's source clip, for its geometry
	client *http.Client      // the submitter's and the workers'

	// Fixed by the first cycle.
	ref      []jobRef
	bitrate  float64
	psnr     float64
	recorded bool
}

// buildFleetBatch: 12 distinct encode jobs, 3 clips × {x264-medium,
// x264-veryfast} × {QP 26, QP 30}, scale 8, one second: the clips and
// size of encode_serial, so the two workloads' encode cost is held
// equal. The submission order is fixed and roughly longest first
// (girl, holi, desktop; medium before veryfast): with a pool of
// workers the batch's wall time depends on which worker is left with
// the last job, and ending on the cheapest jobs keeps that imbalance
// small. So the seed must not choose the order; it labels the jobs
// (JobSpec.Tag) instead.
func buildFleetBatch(e *env, sp *span) (instance, error) {
	var specs []fleet.JobSpec
	for _, clip := range []string{"girl", "holi", "desktop"} {
		for _, enc := range []string{"x264-medium", "x264-veryfast"} {
			for _, qp := range []int{26, 30} {
				specs = append(specs, fleet.JobSpec{Clip: clip, Encoder: enc, Scale: e.scale(8), Duration: 1, QP: qp, RowsParallel: 1})
			}
		}
	}
	return newFleet(e, sp, specs)
}

func newFleet(e *env, sp *span, specs []fleet.JobSpec) (*fleetInst, error) {
	f := &fleetInst{e: e, specs: specs, client: &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}}
	seen := map[string]*video.Sequence{}
	for i := range f.specs {
		s := &f.specs[i]
		s.Tag = fmt.Sprintf("seed%d/%02d", e.seed, i)
		if seen[s.Clip] == nil {
			// The workers synthesise their own copies, once per job;
			// this one is for the geometry.
			seq, err := genClip(sp, s.Clip, s.Scale, s.Duration)
			if err != nil {
				return nil, err
			}
			seen[s.Clip] = seq
		}
		f.seqs = append(f.seqs, seen[s.Clip])
	}
	return f, nil
}

// post sends one JSON request to the master.
func (f *fleetInst) post(url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := f.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, r.Status)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// terminalCounter counts jobs reaching a terminal state and signals
// each one. It runs under the queue lock: an atomic add and a
// non-blocking send, nothing else.
type terminalCounter struct {
	n    atomic.Int64
	wake chan struct{}
}

func (c *terminalCounter) observe(_ fleet.Job, _, to, _ string) {
	if to == fleet.Done.String() || to == fleet.Failed.String() {
		c.n.Add(1)
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// wait blocks until n jobs are terminal or the deadline passes.
func (c *terminalCounter) wait(n int64, limit time.Duration) bool {
	deadline := time.NewTimer(limit)
	defer deadline.Stop()
	for c.n.Load() < n {
		select {
		case <-c.wake:
		case <-deadline.C:
			return c.n.Load() >= n
		}
	}
	return true
}

func (f *fleetInst) cycle(cy *cycle) {
	// Untimed: a fresh master, store and workers, so that main always
	// misses and every cycle sees the same queue.
	reset := cy.sp.child("bench.reset")
	dir, err := f.e.tempDir("fleet-")
	if err != nil {
		reset.finish()
		cy.tally.fail("fleet: temp dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	store, err := cas.Open(dir, telemetry.NewRegistry())
	if err != nil {
		reset.finish()
		cy.tally.fail("fleet: opening store: %v", err)
		return
	}
	term := &terminalCounter{wake: make(chan struct{}, 1)}
	q := fleet.NewQueue(fleet.Options{Cache: store, Metrics: telemetry.NewRegistry(), OnTransition: term.observe})
	srv := httptest.NewServer(fleet.NewServer(q).Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < f.e.nproc; i++ {
		w, err := fleet.NewWorker(fleet.WorkerOptions{
			Master: srv.URL, ID: fmt.Sprintf("w%d", i),
			Concurrency: 1, RowsParallel: 1, Poll: 10 * time.Millisecond,
			Client: f.client, Metrics: telemetry.NewRegistry(), Cache: store,
		})
		if err != nil {
			cy.tally.fail("fleet: worker: %v", err)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	// Every worker context is cancelled and every Run has returned,
	// and the listener is closed, before the cycle ends.
	defer func() {
		sp := cy.sp.child("bench.reset")
		cancel()
		wg.Wait()
		srv.Close()
		f.client.CloseIdleConnections()
		sp.finish()
	}()
	// Wait until every worker has polled the empty queue once, so that
	// the batch always meets workers in the same phase of their poll
	// sleep (a submit racing the first polls would make main bimodal).
	seen := q.Metrics().Gauge("fleet.workers_seen")
	for limit := time.Now().Add(5 * time.Second); seen.Value() < float64(f.e.nproc) && time.Now().Before(limit); {
		time.Sleep(200 * time.Microsecond)
	}
	reset.finish()

	n := len(f.specs)
	submit := fleet.SubmitRequest{Jobs: f.specs}

	// Main: submit the batch over HTTP and wait until all are done.
	sp := cy.sp.child("bench.fleet.batch")
	t := time.Now()
	var first fleet.SubmitResponse
	d := timed(sp, "fleet.submit_rpc", func() { err = f.post(srv.URL+"/api/v1/submit", &submit, &first) })
	f.e.obs.add("fleet.submit_rpc_us", us(d))
	if err != nil || len(first.IDs) != n {
		sp.finish()
		cy.tally.fail("fleet: submit: %v (ids %v)", err, first.IDs)
		return
	}
	var drained bool
	timed(sp, "fleet.wait", func() { drained = term.wait(int64(n), 60*time.Second) })
	cy.main = time.Since(t)
	sp.finish()
	if !drained {
		cy.tally.fail("fleet: batch not done after 60s: %+v", q.Stats())
		return
	}
	leases := q.Stats().Leases

	// Aux: resubmit the identical batch, resubmits times over: the
	// master serves every job from the store without granting a lease.
	// One resubmission takes under a millisecond, too short a sample
	// to time steadily.
	sp = cy.sp.child("bench.fleet.dedup")
	t = time.Now()
	var again []int
	for k := 0; k < resubmits && err == nil; k++ {
		var resp fleet.SubmitResponse
		timed(sp, "fleet.resubmit_rpc", func() { err = f.post(srv.URL+"/api/v1/submit", &submit, &resp) })
		if err == nil && len(resp.IDs) != n {
			err = fmt.Errorf("%d ids for %d jobs", len(resp.IDs), n)
		}
		again = append(again, resp.IDs...)
	}
	if err == nil && !term.wait(int64((1+resubmits)*n), 60*time.Second) {
		err = fmt.Errorf("not done after 60s: %+v", q.Stats())
	}
	cy.aux = time.Since(t)
	sp.finish()
	if err != nil {
		cy.tally.fail("fleet: resubmit: %v", err)
		return
	}

	// Untimed: verify every job of both batches.
	ver := cy.sp.child("bench.verify")
	defer ver.finish()
	jobs := make([]fleet.Job, n)
	got := make([]jobRef, n)
	for i, id := range first.IDs {
		j, err := q.Job(id)
		if err != nil || j.State != fleet.Done || j.Completions != 1 || j.Result == nil {
			cy.tally.fail("fleet: job %d (%s): state %v, completions %d, err %v", id, f.specs[i].Tag, j.State, j.Completions, err)
			return
		}
		jobs[i] = j
		got[i] = jobRef{bytes: j.Result.Bytes, psnr: j.Result.PSNR}
		key, _ := fleet.SpecCacheKey(f.specs[i])
		if o, ok := store.Get(key); ok {
			got[i].sha = sha256.Sum256(o.Bitstream)
		}
	}
	if !f.recorded {
		f.record(got)
	}
	for i := range got {
		if cy.tally.check(got[i] == f.ref[i], "fleet: job %s differs from the first cycle's", f.specs[i].Tag) {
			cy.pix += f.seqs[i].PixelCount()
		}
	}
	for k, id := range again {
		i := k % n
		j, err := q.Job(id)
		okJob := err == nil && j.State == fleet.Done && j.Completions == 1 && j.Result != nil &&
			j.Result.Worker == "cache" && j.Result.Bytes == f.ref[i].bytes && j.Result.PSNR == f.ref[i].psnr
		cy.tally.check(okJob, "fleet: resubmitted job %s was not served from the cache: %+v", f.specs[i].Tag, j.Result)
	}
	st := q.Stats()
	cy.tally.check(st.Leases == leases, "fleet: the resubmissions were granted %d leases, want 0", st.Leases-leases)

	f.observe(jobs, cy.main, st, store.Stats())
}

// observe derives the fleet's per-layer numbers from the queue's own
// job records of the main batch.
func (f *fleetInst) observe(jobs []fleet.Job, wall time.Duration, st fleet.Stats, cs cas.Stats) {
	o := f.e.obs
	if o == nil {
		return
	}
	var waits, execs []float64
	var busy time.Duration
	firstLease := jobs[0].LeasedAt
	submitted := jobs[0].SubmittedAt
	for _, j := range jobs {
		waits = append(waits, ms(j.LeasedAt.Sub(j.SubmittedAt)))
		execs = append(execs, ms(j.DoneAt.Sub(j.LeasedAt)))
		busy += j.DoneAt.Sub(j.LeasedAt)
		if j.LeasedAt.Before(firstLease) {
			firstLease = j.LeasedAt
		}
		if j.SubmittedAt.Before(submitted) {
			submitted = j.SubmittedAt
		}
	}
	o.add("fleet.first_lease_ms", ms(firstLease.Sub(submitted)))
	o.add("fleet.queue_wait_ms", median(waits))
	o.add("fleet.exec_ms", median(execs))
	o.add("fleet.worker_busy_ratio", ratio(float64(busy), float64(wall)*float64(f.e.nproc)))
	o.add("fleet.leases_per_job", ratio(float64(st.Leases), float64(len(jobs))))
	o.add("fleet.dedup_hits", float64(st.CacheDedupHits))
	// Store.Get counts no misses, so the master's own accounting gives
	// the ratio: submissions served from the store over submissions.
	o.add("cas.hits", float64(st.CacheDedupHits))
	o.add("cas.lookups", float64(st.Submitted))
	o.add("cas.disk_kb_per_pass", float64(cs.BytesWritten)/1024)
}

func (f *fleetInst) record(first []jobRef) {
	f.ref, f.recorded = first, true
	for i, r := range first {
		seq := f.seqs[i]
		// The inputs are valid by construction, so Bitrate cannot fail.
		b, _ := metrics.Bitrate(r.bytes, seq.Width(), seq.Height(), seq.Duration())
		f.bitrate += b
		f.psnr += r.psnr
	}
	f.bitrate /= float64(len(first))
	f.psnr /= float64(len(first))
}

func (f *fleetInst) quality() (float64, float64) { return f.bitrate, f.psnr }

func (f *fleetInst) close() error {
	f.client.CloseIdleConnections()
	return nil
}
