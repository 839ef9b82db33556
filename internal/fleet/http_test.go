package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"vbench/internal/telemetry"
)

// testMaster spins up a loopback master over the given queue.
func testMaster(t *testing.T, q *Queue) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewServer(q).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// rawPost is a minimal client for driving the protocol by hand (a
// worker the test controls completely, including "dying").
func rawPost(t *testing.T, url string, req, resp interface{}) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", url, r.Status)
	}
	if resp != nil {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
}

func submitNoops(t *testing.T, url string, n, sleepMS int) []int {
	t.Helper()
	req := SubmitRequest{}
	for i := 0; i < n; i++ {
		req.Jobs = append(req.Jobs, JobSpec{Kind: KindNoop, SleepMS: sleepMS})
	}
	var resp SubmitResponse
	rawPost(t, url+"/api/v1/submit", &req, &resp)
	if len(resp.IDs) != n {
		t.Fatalf("submitted %d jobs, got ids %v", n, resp.IDs)
	}
	return resp.IDs
}

func waitDone(t *testing.T, q *Queue, want int, timeout time.Duration) Stats {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st := q.Stats(); st.Done >= want {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d done jobs; stats = %+v", want, q.Stats())
	return Stats{}
}

// TestLoopbackKilledWorkerExactlyOnce is the in-process version of the
// e2e smoke: a worker dies holding a lease, the lease expires, and the
// surviving worker finishes the batch — every job done exactly once.
func TestLoopbackKilledWorkerExactlyOnce(t *testing.T) {
	q := NewQueue(Options{
		Metrics:     telemetry.NewRegistry(),
		LeaseTTL:    250 * time.Millisecond,
		BackoffBase: 10 * time.Millisecond,
		MaxAttempts: 5,
	})
	srv := testMaster(t, q)
	const jobs = 8
	submitNoops(t, srv.URL, jobs, 5)

	// The doomed worker leases one job and is then SIGKILLed (it never
	// heartbeats, never acks, never polls again).
	var leased LeaseResponse
	rawPost(t, srv.URL+"/api/v1/lease", &LeaseRequest{Worker: "doomed"}, &leased)
	if leased.Job == nil {
		t.Fatal("doomed worker got no lease")
	}

	w, err := NewWorker(WorkerOptions{
		Master: srv.URL, ID: "survivor",
		Poll: 10 * time.Millisecond, Heartbeat: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); w.Run(ctx) }()

	st := waitDone(t, q, jobs, 10*time.Second)
	cancel()
	<-workerDone

	if st.Done != jobs || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.LeaseExpiries == 0 {
		t.Error("the doomed worker's lease never expired")
	}
	for _, j := range q.Jobs() {
		if j.Completions != 1 {
			t.Errorf("job %d completed %d times, want exactly 1", j.ID, j.Completions)
		}
	}
	// The orphaned job went to the survivor on a later attempt.
	if j, _ := q.Job(leased.Job.ID); j.Result.Worker != "survivor" || j.Result.Attempt < 2 {
		t.Errorf("orphaned job result = %+v", j.Result)
	}
}

func TestHTTPDuplicateAndStaleCompletion(t *testing.T) {
	q := NewQueue(Options{Metrics: telemetry.NewRegistry(), LeaseTTL: time.Hour})
	srv := testMaster(t, q)
	ids := submitNoops(t, srv.URL, 1, 0)

	var leased LeaseResponse
	rawPost(t, srv.URL+"/api/v1/lease", &LeaseRequest{Worker: "w1"}, &leased)
	if leased.Job == nil || leased.Job.ID != ids[0] {
		t.Fatalf("lease = %+v", leased.Job)
	}
	ack := AckRequest{Worker: "w1", JobID: leased.Job.ID, Attempt: leased.Job.Attempt, Result: &Result{Bytes: 7}}
	var first, second AckResponse
	rawPost(t, srv.URL+"/api/v1/complete", &ack, &first)
	rawPost(t, srv.URL+"/api/v1/complete", &ack, &second)
	if !first.Applied || second.Applied {
		t.Errorf("applied = %v, %v; want true, false", first.Applied, second.Applied)
	}
	st := q.Stats()
	if st.Done != 1 || st.Completions != 1 || st.DuplicateAcks != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestHTTPOversizedSubmitRejected: a body past maxRequestBody is
// refused with 413 before any job reaches the queue.
func TestHTTPOversizedSubmitRejected(t *testing.T) {
	q := NewQueue(Options{Metrics: telemetry.NewRegistry()})
	srv := testMaster(t, q)
	body, err := json.Marshal(SubmitRequest{Jobs: []JobSpec{
		{Kind: KindNoop},
		{Kind: KindNoop, Tag: strings.Repeat("x", maxRequestBody)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(srv.URL+"/api/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit = %s, want 413", r.Status)
	}
	if st := q.Stats(); st.Submitted != 0 {
		t.Errorf("oversized submit changed the queue: %+v", st)
	}
	// The master still serves ordinary requests.
	submitNoops(t, srv.URL, 1, 0)
}

// TestHTTPMasterRestart snapshots a live master mid-lease, restores it
// into a fresh process-worth of state, and shows the surviving
// worker's completion still lands — leases are durable state.
func TestHTTPMasterRestart(t *testing.T) {
	q := NewQueue(Options{Metrics: telemetry.NewRegistry(), LeaseTTL: time.Hour})
	srv := testMaster(t, q)
	submitNoops(t, srv.URL, 3, 0)

	var leased LeaseResponse
	rawPost(t, srv.URL+"/api/v1/lease", &LeaseRequest{Worker: "w1"}, &leased)
	srv.Close()

	var buf bytes.Buffer
	if err := q.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	q2, err := Restore(&buf, Options{Metrics: telemetry.NewRegistry(), LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := testMaster(t, q2)

	// w1 survived the master restart and completes against the new one.
	var resp AckResponse
	rawPost(t, srv2.URL+"/api/v1/complete", &AckRequest{
		Worker: "w1", JobID: leased.Job.ID, Attempt: leased.Job.Attempt, Result: &Result{},
	}, &resp)
	if !resp.Applied {
		t.Error("post-restart completion not applied")
	}
	st := q2.Stats()
	if st.Done != 1 || st.Pending != 2 || st.Leased != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestWorkerGracefulDrain cancels a worker mid-job (the SIGTERM path)
// and shows the in-flight job still completes and acks before Run
// returns — drain means finish, not abandon.
func TestWorkerGracefulDrain(t *testing.T) {
	q := NewQueue(Options{Metrics: telemetry.NewRegistry(), LeaseTTL: time.Hour})
	srv := testMaster(t, q)
	submitNoops(t, srv.URL, 1, 300)

	w, err := NewWorker(WorkerOptions{Master: srv.URL, ID: "drainer", Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); w.Run(ctx) }()

	// Wait for the lease, then SIGTERM while the 300ms job is running.
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Leased == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job never leased; stats = %+v", q.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-workerDone

	st := q.Stats()
	if st.Done != 1 || st.Completions != 1 {
		t.Errorf("drained worker lost its in-flight job: %+v", st)
	}
}

// TestLoopbackLeavesNoGoroutines runs a loopback master and a
// two-slot worker through a batch whose jobs outlast several
// heartbeats, shuts both down, and requires the goroutine count to
// return to its baseline: a worker slot, heartbeat or master
// goroutine that outlives its shutdown fails here with its stack.
func TestLoopbackLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	q := NewQueue(Options{Metrics: telemetry.NewRegistry(), LeaseTTL: time.Hour})
	srv := httptest.NewServer(NewServer(q).Handler())
	submitNoops(t, srv.URL, 4, 30)
	w, err := NewWorker(WorkerOptions{
		Master: srv.URL, ID: "w1", Concurrency: 2,
		Poll: 5 * time.Millisecond, Heartbeat: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); w.Run(ctx) }()
	waitDone(t, q, 4, 10*time.Second)
	cancel()
	<-workerDone
	srv.Close()

	// HTTP connection goroutines wind down just after their sockets
	// close; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines running, %d before the batch:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestWorkerRetriesInjectedTransientFailure runs the FailFirst fault
// hook end to end: attempt 1 fails transiently, the queue backs off
// and re-leases, attempt 2 succeeds.
func TestWorkerRetriesInjectedTransientFailure(t *testing.T) {
	q := NewQueue(Options{
		Metrics:     telemetry.NewRegistry(),
		LeaseTTL:    time.Hour,
		BackoffBase: 10 * time.Millisecond,
	})
	srv := testMaster(t, q)
	var resp SubmitResponse
	rawPost(t, srv.URL+"/api/v1/submit", &SubmitRequest{Jobs: []JobSpec{
		{Kind: KindNoop, FailFirst: 1},
	}}, &resp)

	w, err := NewWorker(WorkerOptions{Master: srv.URL, ID: "w1", Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); w.Run(ctx) }()

	st := waitDone(t, q, 1, 10*time.Second)
	cancel()
	<-workerDone

	if st.Retries != 1 || st.Completions != 1 || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
	// The failure report must land exactly once — a worker that
	// re-posts an already-applied fail shows up here as stale acks.
	if st.StaleAcks != 0 || st.DuplicateAcks != 0 {
		t.Errorf("failure ack not idempotent: %+v", st)
	}
	j, _ := q.Job(resp.IDs[0])
	if j.Result == nil || j.Result.Attempt != 2 {
		t.Errorf("job result = %+v, want attempt 2", j.Result)
	}
}

// TestWorkerRunsRealEncode pushes one real internal/codec transcode
// through the full master/worker loop.
func TestWorkerRunsRealEncode(t *testing.T) {
	q := NewQueue(Options{Metrics: telemetry.NewRegistry(), LeaseTTL: time.Hour})
	srv := testMaster(t, q)
	var resp SubmitResponse
	rawPost(t, srv.URL+"/api/v1/submit", &SubmitRequest{Jobs: []JobSpec{
		{Clip: "girl", Encoder: "x264-veryfast", Scale: 16, Duration: 0.2, QP: 30},
	}}, &resp)

	w, err := NewWorker(WorkerOptions{Master: srv.URL, ID: "enc", Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); w.Run(ctx) }()

	st := waitDone(t, q, 1, 30*time.Second)
	cancel()
	<-workerDone

	if st.Done != 1 {
		t.Fatalf("stats = %+v", st)
	}
	j, _ := q.Job(resp.IDs[0])
	if j.Result == nil || j.Result.Bytes <= 0 || j.Result.PSNR <= 0 {
		t.Errorf("encode result = %+v", j.Result)
	}
}

// TestHTTPTerminalSpecFailure submits a job whose spec passes queue
// validation but fails terminally at execution (unknown clip): the
// worker classifies it and the queue does not retry.
func TestHTTPTerminalSpecFailure(t *testing.T) {
	q := NewQueue(Options{Metrics: telemetry.NewRegistry(), LeaseTTL: time.Hour, MaxAttempts: 5})
	srv := testMaster(t, q)
	var resp SubmitResponse
	rawPost(t, srv.URL+"/api/v1/submit", &SubmitRequest{Jobs: []JobSpec{
		{Clip: "no-such-clip", Encoder: "x264-medium", Scale: 16, Duration: 0.2},
	}}, &resp)

	w, err := NewWorker(WorkerOptions{Master: srv.URL, ID: "w1", Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); w.Run(ctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for q.Stats().Failed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job never failed; stats = %+v", q.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-workerDone

	st := q.Stats()
	if st.Failed != 1 || st.Retries != 0 || st.Leases != 1 {
		t.Errorf("terminal failure was retried: %+v", st)
	}
	j, _ := q.Job(resp.IDs[0])
	if !strings.Contains(j.LastErr, "no-such-clip") {
		t.Errorf("LastErr = %q", j.LastErr)
	}
}
