package fleet

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"vbench/internal/telemetry"
)

// simOptionsTL mirrors sim_test's options with a fresh registry per
// run, so repeated runs are fully isolated.
func simOptionsTL() Options {
	return Options{
		Metrics:     telemetry.NewRegistry(),
		LeaseTTL:    5 * time.Second,
		MaxAttempts: 3,
		BackoffBase: time.Second,
		BackoffMax:  8 * time.Second,
	}
}

// TestSimTimelinesByteIdentical pins the determinism acceptance
// criterion: with the new instrumentation enabled, repeated sim runs
// of the same configuration produce byte-identical event timelines.
func TestSimTimelinesByteIdentical(t *testing.T) {
	run := func() string {
		s := NewSim(SimConfig{Workers: 3, Queue: simOptionsTL(), Model: hashFaultModel})
		for i := 0; i < 40; i++ {
			s.SubmitAt(time.Duration(i)*100*time.Millisecond, JobSpec{Kind: KindNoop, Tag: "tl"}, nil)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Timelines()
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("sim produced no timeline events")
	}
	if a != b {
		t.Fatalf("timelines differ across identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if !strings.Contains(a, "job=1 seq=1 t=0.000 none>pending reason=submit attempt=0 worker=-") {
		t.Errorf("timeline missing the submit event of job 1:\n%s", a)
	}
}

// TestTimelineRecordsLifecycle checks the event ring's contents, clock
// and sequence numbers included, for a job that loses its first
// attempt and completes on the second: once through a transient
// failure, once through a lease that expires when its worker goes
// silent.
func TestTimelineRecordsLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		lose func(q *Queue, clk *SimClock, id int)
		want []string
	}{{
		name: "transient failure",
		lose: func(q *Queue, clk *SimClock, id int) {
			if err := q.Fail(id, 1, "w1", false, "boom"); err != nil {
				t.Fatal(err)
			}
			clk.Advance(clk.Now().Add(2 * time.Second))
		},
		want: []string{
			"seq=1 t=0.000 none>pending reason=submit attempt=0 worker=-",
			"seq=2 t=0.000 pending>leased reason=lease attempt=1 worker=w1",
			"seq=3 t=0.000 leased>pending reason=transient_error attempt=1 worker=w1",
			"seq=4 t=2.000 pending>leased reason=lease attempt=2 worker=w2",
			"seq=5 t=2.000 leased>done reason=complete attempt=2 worker=w2",
		},
	}, {
		name: "lease expiry",
		lose: func(q *Queue, clk *SimClock, id int) {
			clk.Advance(clk.Now().Add(6 * time.Second))
			q.ExpireLeases()
			j, err := q.Job(id)
			if err != nil {
				t.Fatal(err)
			}
			clk.Advance(j.ReadyAt)
		},
		want: []string{
			"seq=1 t=0.000 none>pending reason=submit attempt=0 worker=-",
			"seq=2 t=0.000 pending>leased reason=lease attempt=1 worker=w1",
			"seq=3 t=6.000 leased>pending reason=lease_expired attempt=1 worker=w1",
			"seq=4 t=7.000 pending>leased reason=lease attempt=2 worker=w2",
			"seq=5 t=7.000 leased>done reason=complete attempt=2 worker=w2",
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			q, clk := simQueue(Options{LeaseTTL: 5 * time.Second, BackoffBase: time.Second})
			id, err := q.Submit(noopSpec())
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := q.Lease("w1"); !ok {
				t.Fatal("lease failed")
			}
			tc.lose(q, clk, id)
			if _, ok := q.Lease("w2"); !ok {
				t.Fatal("re-lease failed")
			}
			if _, err := q.Complete(id, 2, "w2", Result{}); err != nil {
				t.Fatal(err)
			}

			events, dropped, err := q.Timeline(id)
			if err != nil {
				t.Fatal(err)
			}
			if dropped != 0 {
				t.Fatalf("dropped = %d, want 0", dropped)
			}
			if len(events) != len(tc.want) {
				t.Fatalf("got %d events, want %d: %v", len(events), len(tc.want), events)
			}
			for i, e := range events {
				if got := e.String(); got != tc.want[i] {
					t.Errorf("event %d = %q, want %q", i, got, tc.want[i])
				}
			}
		})
	}
}

// TestTimelineRingBounded drives one job through enough retries to
// overflow the ring and checks the drop accounting.
func TestTimelineRingBounded(t *testing.T) {
	q, clk := simQueue(Options{MaxAttempts: 40, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond})
	id, err := q.Submit(noopSpec())
	if err != nil {
		t.Fatal(err)
	}
	for {
		j, ok := q.Lease("w1")
		if !ok {
			clk.Advance(clk.Now().Add(10 * time.Millisecond))
			j, ok = q.Lease("w1")
			if !ok {
				break // job reached a terminal state
			}
		}
		if err := q.Fail(id, j.Attempt, "w1", false, "always failing"); err != nil {
			t.Fatal(err)
		}
	}
	events, dropped, err := q.Timeline(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != timelineCap {
		t.Fatalf("ring holds %d events, want %d", len(events), timelineCap)
	}
	if dropped == 0 {
		t.Fatal("expected dropped events after 40 attempts")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("seq not strictly increasing: %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}
	last := events[len(events)-1]
	if last.To != "failed" {
		t.Errorf("last event is %s>%s, want a terminal failed transition", last.From, last.To)
	}
}

// TestTimelineSurvivesSnapshotRestore checks that job timelines and
// the queue-wide sequence ride through snapshot/restore, and that
// post-restore events extend the timeline monotonically.
func TestTimelineSurvivesSnapshotRestore(t *testing.T) {
	q, clk := simQueue(Options{})
	id, err := q.Submit(noopSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Lease("w1"); !ok {
		t.Fatal("lease failed")
	}
	before, _, err := q.Timeline(id)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := q.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	q2, err := Restore(&buf, Options{Clock: clk, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	after, dropped, err := q2.Timeline(id)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d after restore, want 0", dropped)
	}
	if len(after) != len(before) {
		t.Fatalf("restored timeline has %d events, want %d", len(after), len(before))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Errorf("event %d changed across restore: %+v != %+v", i, after[i], before[i])
		}
	}

	// New activity continues the sequence past the restored maximum.
	clk.Advance(clk.Now().Add(time.Second))
	if _, err := q2.Complete(id, 1, "w1", Result{}); err != nil {
		t.Fatal(err)
	}
	events, _, err := q2.Timeline(id)
	if err != nil {
		t.Fatal(err)
	}
	last, prev := events[len(events)-1], events[len(events)-2]
	if last.Seq <= prev.Seq {
		t.Fatalf("post-restore seq %d does not extend restored seq %d", last.Seq, prev.Seq)
	}
	if last.T < prev.T {
		t.Fatalf("post-restore timestamp %.3f went backwards from %.3f", last.T, prev.T)
	}
}
