package fleet

import (
	"bytes"
	"math"
	"testing"
	"time"

	"vbench/internal/telemetry"
)

// simQueue builds a queue on a SimClock with test-friendly knobs.
func simQueue(opt Options) (*Queue, *SimClock) {
	clk := NewSimClock(time.Unix(0, 0).UTC())
	opt.Clock = clk
	if opt.Metrics == nil {
		opt.Metrics = telemetry.NewRegistry()
	}
	return NewQueue(opt), clk
}

func noopSpec() JobSpec { return JobSpec{Kind: KindNoop} }

func TestSubmitValidation(t *testing.T) {
	q, _ := simQueue(Options{})
	for name, s := range map[string]JobSpec{
		"no clip/encoder":   {Kind: KindEncode},
		"no scale/duration": {Clip: "girl", Encoder: "x264-medium"},
		"negative duration": {Clip: "girl", Encoder: "x264-medium", Scale: 16, Duration: -1},
		"NaN duration":      {Clip: "girl", Encoder: "x264-medium", Scale: 16, Duration: math.NaN()},
		"+Inf duration":     {Clip: "girl", Encoder: "x264-medium", Scale: 16, Duration: math.Inf(1)},
	} {
		if _, err := q.Submit(s); err == nil {
			t.Errorf("%s: invalid encode spec accepted", name)
		}
	}
	id, err := q.Submit(JobSpec{Clip: "girl", Encoder: "x264-medium", Scale: 16, Duration: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("first job id = %d, want 1", id)
	}
}

func TestLeaseExpiryRetrySuccess(t *testing.T) {
	q, clk := simQueue(Options{LeaseTTL: 10 * time.Second, BackoffBase: time.Second, MaxAttempts: 3})
	id, err := q.Submit(noopSpec())
	if err != nil {
		t.Fatal(err)
	}

	j, ok := q.Lease("w1")
	if !ok || j.ID != id || j.Attempt != 1 {
		t.Fatalf("lease = %+v, %v", j, ok)
	}
	// w1 dies silently; past the TTL the job requeues with backoff.
	clk.Advance(clk.Now().Add(11 * time.Second))
	q.ExpireLeases()
	got, err := q.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != Pending || got.Expiries != 1 || got.Retries != 1 {
		t.Fatalf("after expiry: %+v", got)
	}
	// Still in backoff: not leasable yet.
	if _, ok := q.Lease("w2"); ok {
		t.Fatal("leased a job still in backoff")
	}
	clk.Advance(got.ReadyAt)
	j2, ok := q.Lease("w2")
	if !ok || j2.Attempt != 2 || j2.Worker != "w2" {
		t.Fatalf("re-lease = %+v, %v", j2, ok)
	}
	applied, err := q.Complete(id, 2, "w2", Result{Seconds: 1})
	if err != nil || !applied {
		t.Fatalf("complete: applied=%v err=%v", applied, err)
	}
	st := q.Stats()
	if st.Done != 1 || st.LeaseExpiries != 1 || st.Retries != 1 || st.Completions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTransientFailureBackoffAndBoundedRetries(t *testing.T) {
	q, clk := simQueue(Options{LeaseTTL: time.Hour, BackoffBase: time.Second, BackoffMax: time.Minute, MaxAttempts: 3})
	id, _ := q.Submit(noopSpec())

	for attempt := 1; attempt <= 3; attempt++ {
		// Ready time honors the exponential schedule.
		j, err := q.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if clk.Now().Before(j.ReadyAt) {
			clk.Advance(j.ReadyAt)
		}
		leased, ok := q.Lease("w1")
		if !ok || leased.Attempt != attempt {
			t.Fatalf("attempt %d: lease = %+v, %v", attempt, leased, ok)
		}
		if err := q.Fail(id, attempt, "w1", false, "flaky"); err != nil {
			t.Fatal(err)
		}
		j, _ = q.Job(id)
		if attempt < 3 {
			wantDelay := time.Duration(1<<(attempt-1)) * time.Second
			if j.State != Pending {
				t.Fatalf("attempt %d: state = %v", attempt, j.State)
			}
			if gotDelay := j.ReadyAt.Sub(clk.Now()); gotDelay != wantDelay {
				t.Errorf("attempt %d: backoff = %v, want %v", attempt, gotDelay, wantDelay)
			}
		} else if j.State != Failed {
			t.Fatalf("after final attempt: state = %v, want failed", j.State)
		}
	}
	st := q.Stats()
	if st.Failed != 1 || st.Retries != 2 || st.Leases != 3 {
		t.Errorf("stats = %+v", st)
	}
	// A failed job never becomes leasable again.
	clk.Advance(clk.Now().Add(time.Hour))
	if _, ok := q.Lease("w1"); ok {
		t.Error("leased a terminally failed job")
	}
}

func TestTerminalFailureNoRetry(t *testing.T) {
	q, clk := simQueue(Options{MaxAttempts: 5})
	id, _ := q.Submit(noopSpec())
	if _, ok := q.Lease("w1"); !ok {
		t.Fatal("no lease")
	}
	if err := q.Fail(id, 1, "w1", true, "bad spec"); err != nil {
		t.Fatal(err)
	}
	j, _ := q.Job(id)
	if j.State != Failed || j.Retries != 0 || j.LastErr != "bad spec" {
		t.Fatalf("job = %+v", j)
	}
	clk.Advance(clk.Now().Add(time.Hour))
	if _, ok := q.Lease("w1"); ok {
		t.Error("terminal failure was retried")
	}
	if st := q.Stats(); st.Retries != 0 || st.Failed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIdempotentDuplicateAndStaleCompletions(t *testing.T) {
	q, clk := simQueue(Options{LeaseTTL: 10 * time.Second, BackoffBase: time.Millisecond})
	id, _ := q.Submit(noopSpec())
	q.Lease("w1")

	// First completion applies; the retransmitted one is a duplicate.
	applied, err := q.Complete(id, 1, "w1", Result{})
	if err != nil || !applied {
		t.Fatalf("first complete: applied=%v err=%v", applied, err)
	}
	applied, err = q.Complete(id, 1, "w1", Result{})
	if err != nil || applied {
		t.Fatalf("duplicate complete: applied=%v err=%v", applied, err)
	}

	// A lapsed attempt's completion is stale once the job re-leased.
	id2, _ := q.Submit(noopSpec())
	q.Lease("w1")
	clk.Advance(clk.Now().Add(11 * time.Second))
	q.ExpireLeases()
	j2, _ := q.Job(id2)
	clk.Advance(j2.ReadyAt)
	leased, ok := q.Lease("w2")
	if !ok || leased.ID != id2 || leased.Attempt != 2 {
		t.Fatalf("re-lease = %+v, %v", leased, ok)
	}
	applied, err = q.Complete(id2, 1, "w1", Result{}) // zombie w1 reports late
	if err != nil || applied {
		t.Fatalf("stale complete: applied=%v err=%v", applied, err)
	}
	applied, err = q.Complete(id2, 2, "w2", Result{})
	if err != nil || !applied {
		t.Fatalf("current complete: applied=%v err=%v", applied, err)
	}

	j2, _ = q.Job(id2)
	if j2.Completions != 1 || j2.StaleAcks != 1 {
		t.Errorf("job2 accounting = %+v", j2)
	}
	st := q.Stats()
	if st.Completions != 2 || st.DuplicateAcks != 1 || st.StaleAcks != 1 || st.Done != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	q, clk := simQueue(Options{LeaseTTL: 10 * time.Second})
	id, _ := q.Submit(noopSpec())
	q.Lease("w1")

	// Heartbeats every 6 sim-seconds keep an 18-second job alive
	// through a 10-second TTL.
	for i := 0; i < 3; i++ {
		clk.Advance(clk.Now().Add(6 * time.Second))
		if err := q.Heartbeat(id, 1, "w1"); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	q.ExpireLeases()
	j, _ := q.Job(id)
	if j.State != Leased || j.Expiries != 0 {
		t.Fatalf("job = %+v", j)
	}
	// The wrong worker (or a lapsed attempt) cannot heartbeat.
	if err := q.Heartbeat(id, 1, "w2"); err == nil {
		t.Error("foreign heartbeat accepted")
	}
	if err := q.Heartbeat(id, 2, "w1"); err == nil {
		t.Error("future-attempt heartbeat accepted")
	}
}

func TestInvalidTransitionPanics(t *testing.T) {
	q, _ := simQueue(Options{})
	id, _ := q.Submit(noopSpec())
	q.Lease("w1")
	if _, err := q.Complete(id, 1, "w1", Result{}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("done -> leased transition did not panic")
		}
	}()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.setState(q.jobs[id-1], Leased, "bug")
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	q, clk := simQueue(Options{Metrics: reg, LeaseTTL: 10 * time.Second})
	for i := 0; i < 4; i++ {
		if _, err := q.Submit(noopSpec()); err != nil {
			t.Fatal(err)
		}
	}
	q.Lease("w1") // job 1 leased
	q.Complete(2, 0, "w1", Result{})
	leased2, _ := q.Lease("w1") // job 2
	q.Complete(leased2.ID, leased2.Attempt, "w1", Result{Bytes: 42})

	var buf bytes.Buffer
	if err := q.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	q2, err := Restore(bytes.NewReader(buf.Bytes()), Options{Clock: clk, Metrics: telemetry.NewRegistry(), LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if q2.Stats() != q.Stats() {
		t.Errorf("restored stats = %+v, want %+v", q2.Stats(), q.Stats())
	}
	// The surviving worker's lease is still honored across the restart.
	if applied, err := q2.Complete(1, 1, "w1", Result{}); err != nil || !applied {
		t.Fatalf("post-restore complete: applied=%v err=%v", applied, err)
	}
	// The remaining pending jobs lease normally.
	if j, ok := q2.Lease("w2"); !ok || j.ID != 3 {
		t.Fatalf("post-restore lease = %+v, %v", j, ok)
	}
	jr, err := q2.Job(2)
	if err != nil || jr.Result == nil || jr.Result.Bytes != 42 {
		t.Errorf("restored result = %+v (err %v)", jr.Result, err)
	}
}

func TestBackoffCap(t *testing.T) {
	q, _ := simQueue(Options{BackoffBase: time.Second, BackoffMax: 5 * time.Second})
	for attempt, want := range map[int]time.Duration{
		1: time.Second,
		2: 2 * time.Second,
		3: 4 * time.Second,
		4: 5 * time.Second,
		9: 5 * time.Second,
	} {
		if got := q.backoff(attempt); got != want {
			t.Errorf("backoff(%d) = %v, want %v", attempt, got, want)
		}
	}
}
