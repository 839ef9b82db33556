package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"vbench/internal/cas"
	"vbench/internal/syncx"
	"vbench/internal/telemetry"
)

// Worker-side metric names. These live in the worker's registry and
// ride to the master on metric pushes, so the master's snapshots show
// fleet-wide encode throughput; schema rows in docs/FORMAT.md.
const (
	metricJobsExecuted  = "worker.jobs_executed"
	metricExecFailures  = "worker.exec_failures"
	metricEncodeSeconds = "worker.encode_seconds"
	metricEncodeMBPS    = "worker.encode_mbps"
	// The worker.stage.* counters mirror the process-wide
	// codec.stage.*_ns clocks at push time (they only advance while
	// telemetry.StagesEnabled; cmd/vbenchd worker enables stages when
	// tracing). The mirror assumes one worker per process — the
	// vbenchd deployment shape — since the codec clocks are global.
	metricStageMotion    = "worker.stage.motion_ns"
	metricStageTransform = "worker.stage.transform_ns"
	metricStageEntropy   = "worker.stage.entropy_ns"
	metricStageGateWait  = "worker.stage.slice_gate_wait_ns"
	// worker.wave_occupancy mirrors the process-wide
	// codec.wave.occupancy histogram the same way, so /status can show
	// per-worker wavefront utilization.
	metricWaveOccupancy = "worker.wave_occupancy"
	// worker.source_{hits,misses} mirror the process-wide source memo
	// under the same one-worker-per-process assumption. A lookup that
	// joined an in-flight synthesis counts as a hit: it generated
	// nothing.
	metricSourceHits   = "worker.source_hits"
	metricSourceMisses = "worker.source_misses"
)

// WorkerOptions configures a pull worker.
type WorkerOptions struct {
	// Master is the base URL of the master, e.g. "http://127.0.0.1:7933".
	Master string
	// ID names this worker in leases and logs.
	ID string
	// Concurrency is how many jobs run at once (each encode still
	// shares the process CPU gate). Default 1.
	Concurrency int
	// Poll is the idle re-poll interval. Default 200ms.
	Poll time.Duration
	// Heartbeat is the lease-renewal interval; it should be well
	// under the master's lease TTL. Non-positive derives it from the
	// TTL the master advertises on each lease (TTL/3).
	Heartbeat time.Duration
	// Gate bounds concurrent encode work; nil selects the process-
	// wide syncx.CPU gate, so a worker colocated with other encode
	// work cannot oversubscribe the machine.
	Gate *syncx.CPUGate
	// Client is the HTTP client; nil selects one with a 15s timeout.
	Client *http.Client
	// Log receives progress lines; nil discards them. cmd/vbenchd
	// passes a telemetry.LineWriter.Labeled writer so lines carry the
	// worker's identity; the worker itself writes plain lines.
	Log io.Writer
	// Tracer records execution spans parented under the master's
	// lease spans via the trace-context headers; nil disables tracing.
	Tracer *telemetry.Tracer
	// Metrics is the registry for the worker.* metrics; nil selects
	// telemetry.Default. Loopback tests colocating a master and a
	// worker in one process should pass the worker its own registry,
	// or absorbed pushes would double-count into the shared one.
	Metrics *telemetry.Registry
	// DisablePush stops piggybacking metric snapshots on heartbeats
	// and acks.
	DisablePush bool
	// RowsParallel is the default wavefront setting applied to encode
	// jobs whose spec leaves it unset (see codec.Config.RowsParallel):
	// 0 shares the process CPU gate, 1 disables row parallelism, 2..64
	// forces dedicated row lanes.
	RowsParallel int
	// Cache, when non-nil, is the shared content-addressed transcode
	// store: encode jobs whose result is already cached complete
	// without encoding, and fresh encodes populate the store for the
	// rest of the fleet.
	Cache *cas.Store
}

// Worker pulls jobs from a master and runs them with real encoders.
// Run blocks until the context is canceled and then drains: in-flight
// jobs finish and their completions are delivered before Run returns
// — the SIGTERM path of cmd/vbenchd worker.
type Worker struct {
	opt WorkerOptions

	mExecuted, mFailures        *telemetry.Counter
	hEncodeSeconds, hEncodeMBPS *telemetry.Histogram

	pushMu  sync.Mutex
	pushSeq int64
}

// traceCtx is the trace context a lease response carries; zero means
// the master is not tracing.
type traceCtx struct {
	traceID, spanID string
}

// NewWorker validates options and builds a worker.
func NewWorker(opt WorkerOptions) (*Worker, error) {
	if opt.Master == "" {
		return nil, fmt.Errorf("fleet: worker needs a master URL")
	}
	if opt.ID == "" {
		return nil, fmt.Errorf("fleet: worker needs an id")
	}
	if opt.Concurrency <= 0 {
		opt.Concurrency = 1
	}
	if opt.Poll <= 0 {
		opt.Poll = 200 * time.Millisecond
	}
	if opt.Gate == nil {
		opt.Gate = syncx.CPU
	}
	if opt.Client == nil {
		opt.Client = &http.Client{Timeout: 15 * time.Second}
	}
	if opt.Log == nil {
		opt.Log = io.Discard
	}
	if opt.Metrics == nil {
		opt.Metrics = telemetry.Default
	}
	w := &Worker{opt: opt}
	w.mExecuted = opt.Metrics.Counter(metricJobsExecuted)
	w.mFailures = opt.Metrics.Counter(metricExecFailures)
	w.hEncodeSeconds = opt.Metrics.Histogram(metricEncodeSeconds,
		0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30)
	w.hEncodeMBPS = opt.Metrics.Histogram(metricEncodeMBPS,
		0.5, 1, 2, 4, 8, 16, 32)
	return w, nil
}

// Run pulls and executes jobs until ctx is canceled, then drains.
func (w *Worker) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	for i := 0; i < w.opt.Concurrency; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w.loop(ctx, slot)
		}(i)
	}
	wg.Wait()
	return nil
}

// loop is one lease-execute-ack cycle until shutdown.
func (w *Worker) loop(ctx context.Context, slot int) {
	for ctx.Err() == nil {
		job, ttl, trace, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.logf("lease: %v", err)
			w.sleep(ctx, w.opt.Poll)
			continue
		}
		if job == nil {
			w.sleep(ctx, w.opt.Poll)
			continue
		}
		w.runJob(job, ttl, trace)
	}
}

// runJob executes one leased job under the CPU gate with heartbeats,
// then delivers the completion or classified failure. Acks run on a
// background context so a drain still reports in-flight work.
func (w *Worker) runJob(job *Job, ttl time.Duration, trace traceCtx) {
	hb := w.opt.Heartbeat
	if hb <= 0 {
		hb = ttl / 3
		if hb <= 0 {
			hb = time.Second
		}
	}
	hbCtx, stopHB := context.WithCancel(context.Background())
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeats(hbCtx, job, hb, trace)
	}()

	w.opt.Gate.Acquire()
	res, elapsed, execErr := w.execute(job, trace)
	w.opt.Gate.Release()
	stopHB()
	hbWG.Wait()
	w.observeExec(job, res, execErr, elapsed)

	push, seq := w.buildPush()
	if execErr != nil {
		terminal := IsTerminal(execErr)
		w.logf("job %d attempt %d failed (%s): %v", job.ID, job.Attempt, failureClass(terminal), execErr)
		if ackErr := w.ack(context.Background(), "/api/v1/fail", &AckRequest{
			Worker: w.opt.ID, JobID: job.ID, Attempt: job.Attempt,
			Terminal: terminal, Error: execErr.Error(),
			Push: push, PushSeq: seq,
		}, nil, trace); ackErr != nil {
			w.logf("job %d: reporting failure: %v", job.ID, ackErr)
		}
		return
	}
	var resp AckResponse
	if ackErr := w.ack(context.Background(), "/api/v1/complete", &AckRequest{
		Worker: w.opt.ID, JobID: job.ID, Attempt: job.Attempt, Result: &res,
		Push: push, PushSeq: seq,
	}, &resp, trace); ackErr != nil {
		// The master will expire the lease and retry the job; with
		// idempotent completion a duplicate re-run is absorbed.
		w.logf("job %d: reporting completion: %v", job.ID, ackErr)
		return
	}
	if resp.Applied {
		w.logf("job %d attempt %d done", job.ID, job.Attempt)
	} else {
		w.logf("job %d attempt %d completion ignored (duplicate or stale)", job.ID, job.Attempt)
	}
}

// execute runs the attempt inside an execution span parented (via the
// trace context the lease carried) under the master's lease span, with
// the actual work in a nested child span.
func (w *Worker) execute(job *Job, trace traceCtx) (Result, time.Duration, error) {
	sp := w.opt.Tracer.Start(fmt.Sprintf("execute job=%d", job.ID))
	sp.SetID(ExecSpanID(job.ID, job.Attempt, w.opt.ID))
	if trace.spanID != "" {
		sp.SetParent(trace.spanID)
	}
	if trace.traceID != "" {
		sp.Arg("trace_id", trace.traceID)
	}
	sp.Arg("job", job.ID)
	sp.Arg("attempt", job.Attempt)
	sp.Arg("worker", w.opt.ID)

	kind := job.Spec.Kind
	if kind == "" {
		kind = KindEncode
	}
	child := sp.Child(kind)
	if kind == KindEncode {
		child.Arg("clip", job.Spec.Clip)
		child.Arg("encoder", job.Spec.Encoder)
	}
	x := Executor{Cache: w.opt.Cache, DefaultRowsParallel: w.opt.RowsParallel}
	start := time.Now()
	res, err := x.Execute(job.Spec, job.Attempt, time.Sleep)
	elapsed := time.Since(start)
	child.End()
	if err != nil {
		sp.Arg("error", failureClass(IsTerminal(err)))
	}
	sp.End()
	return res, elapsed, err
}

// observeExec records the attempt in the worker.* metrics.
func (w *Worker) observeExec(job *Job, res Result, err error, elapsed time.Duration) {
	w.mExecuted.Inc()
	if err != nil {
		w.mFailures.Inc()
		return
	}
	kind := job.Spec.Kind
	if kind != "" && kind != KindEncode {
		return
	}
	w.hEncodeSeconds.Observe(elapsed.Seconds())
	if res.InputBytes > 0 && elapsed > 0 {
		w.hEncodeMBPS.Observe(float64(res.InputBytes) / 1e6 / elapsed.Seconds())
	}
}

// buildPush snapshots the worker.* metrics for a piggybacked push.
// Snapshots are cumulative and sequenced under one lock, so the master
// can absorb them as ordered deltas; see Server.observeAck.
func (w *Worker) buildPush() (*telemetry.Export, int64) {
	if w.opt.DisablePush {
		return nil, 0
	}
	w.pushMu.Lock()
	defer w.pushMu.Unlock()
	e := w.opt.Metrics.Export("worker.")
	e.Counters[metricStageMotion] = telemetry.GetCounter("codec.stage.motion_ns").Value()
	e.Counters[metricStageTransform] = telemetry.GetCounter("codec.stage.transform_ns").Value()
	e.Counters[metricStageEntropy] = telemetry.GetCounter("codec.stage.entropy_ns").Value()
	e.Counters[metricStageGateWait] = telemetry.GetCounter("codec.stage.slice_gate_wait_ns").Value()
	src := sources.Stats()
	e.Counters[metricSourceHits] = src.Hits + src.Inflight
	e.Counters[metricSourceMisses] = src.Misses
	// Mirror the wavefront occupancy histogram whole (bounds included)
	// so the master can absorb it and /status can report its mean
	// without re-registering the codec's bucket layout.
	we := telemetry.Default.Export("codec.wave.occupancy")
	if he, ok := we.Histograms["codec.wave.occupancy"]; ok {
		e.Histograms[metricWaveOccupancy] = he
	}
	w.pushSeq++
	return &e, w.pushSeq
}

// heartbeats renews the lease until ctx is canceled or the master
// says the lease lapsed.
func (w *Worker) heartbeats(ctx context.Context, job *Job, every time.Duration, trace traceCtx) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			push, seq := w.buildPush()
			var resp AckResponse
			err := w.ack(ctx, "/api/v1/heartbeat", &AckRequest{
				Worker: w.opt.ID, JobID: job.ID, Attempt: job.Attempt,
				Push: push, PushSeq: seq,
			}, &resp, trace)
			if err == nil && !resp.OK {
				// Lease lost (e.g. the master expired it during a
				// network partition). The encode cannot be canceled
				// mid-flight; its completion will be ignored as stale.
				w.logf("job %d attempt %d: lease lost", job.ID, job.Attempt)
				return
			}
		}
	}
}

// lease asks the master for one job; nil job means nothing is ready.
// The trace context, if the master is tracing, rides on the response
// headers.
func (w *Worker) lease(ctx context.Context) (*Job, time.Duration, traceCtx, error) {
	var resp LeaseResponse
	hdr, err := w.post(ctx, "/api/v1/lease", &LeaseRequest{Worker: w.opt.ID}, &resp, traceCtx{})
	if err != nil {
		return nil, 0, traceCtx{}, err
	}
	trace := traceCtx{traceID: hdr.Get(HeaderTraceID), spanID: hdr.Get(HeaderSpanID)}
	return resp.Job, time.Duration(resp.LeaseTTLMS) * time.Millisecond, trace, nil
}

// ack posts a report with bounded retries — transient master
// unavailability must not turn a finished encode into a lost ack.
func (w *Worker) ack(ctx context.Context, path string, req *AckRequest, resp *AckResponse, trace traceCtx) error {
	if resp == nil {
		// A typed-nil *AckResponse would defeat post's interface nil
		// check and make json.Decode error — which would retry an ack
		// the master already applied.
		resp = &AckResponse{}
	}
	var err error
	for i := 0; i < 3; i++ {
		if i > 0 {
			w.sleep(ctx, 150*time.Millisecond)
		}
		if _, err = w.post(ctx, path, req, resp, trace); err == nil {
			return nil
		}
	}
	return err
}

// post sends one JSON request to the master, echoing the trace context
// on the request headers, and returns the response headers.
func (w *Worker) post(ctx context.Context, path string, req, resp interface{}, trace traceCtx) (http.Header, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opt.Master+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if trace.traceID != "" {
		hreq.Header.Set(HeaderTraceID, trace.traceID)
	}
	if trace.spanID != "" {
		hreq.Header.Set(HeaderSpanID, trace.spanID)
	}
	hresp, err := w.opt.Client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(hresp.Body, 1024))
		return hresp.Header, fmt.Errorf("fleet: %s: %s: %s", path, hresp.Status, bytes.TrimSpace(b))
	}
	if resp == nil {
		return hresp.Header, nil
	}
	return hresp.Header, json.NewDecoder(hresp.Body).Decode(resp)
}

// sleep waits without outliving the context.
func (w *Worker) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// logf writes one plain progress line; worker identity comes from the
// Log writer (telemetry.LineWriter.Labeled in cmd/vbenchd), not from
// the line itself.
func (w *Worker) logf(format string, args ...interface{}) {
	fmt.Fprintf(w.opt.Log, "%s\n", fmt.Sprintf(format, args...))
}

// failureClass names the retry class for logs.
func failureClass(terminal bool) string {
	if terminal {
		return "terminal"
	}
	return "transient"
}
