package fleet

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"vbench/internal/cas"
	"vbench/internal/telemetry"
)

// TestRestoreRejectsOrphanFollowers: a parked dedup follower settles
// only through an earlier leader that is still in flight. Restoring one
// parked behind anything else would leave it pending forever, so
// Restore must refuse the snapshot.
func TestRestoreRejectsOrphanFollowers(t *testing.T) {
	leased := Job{ID: 1, State: Leased, Attempt: 1, Worker: "w1"}
	follower := func(id, of int) Job { return Job{ID: id, State: Pending, DedupOf: of} }
	cases := []struct {
		name string
		jobs []Job
	}{
		{"leader done", []Job{{ID: 1, State: Done}, follower(2, 1)}},
		{"parked behind itself", []Job{follower(1, 1)}},
		{"leader missing", []Job{follower(1, 9)}},
		{"follower of a follower", []Job{leased, follower(2, 1), follower(3, 2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(snapshot{Version: snapshotVersion, Jobs: tc.jobs}); err != nil {
				t.Fatal(err)
			}
			if _, err := Restore(&buf, Options{Metrics: telemetry.NewRegistry()}); err == nil {
				t.Error("Restore accepted a follower that can never settle")
			}
		})
	}
}

// FuzzRestore: whatever bytes reach Restore, it either rejects them or
// yields a queue in which every job reaches exactly one terminal state.
// The drain leases and completes whatever is ready and otherwise jumps
// the clock to the queue's next wake (backoff or lease expiry), so a
// stuck job shows up as a drain that runs out of steps.
func FuzzRestore(f *testing.F) {
	// Seed: the TestDedupSurvivesRestore shape, a leased leader with a
	// parked follower.
	store, err := cas.Open(f.TempDir(), telemetry.NewRegistry())
	if err != nil {
		f.Fatal(err)
	}
	q, _ := simQueue(Options{Cache: store})
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(encSpec(30)); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := q.Submit(noopSpec()); err != nil {
		f.Fatal(err)
	}
	if _, ok := q.Lease("w1"); !ok {
		f.Fatal("seed leader not leased")
	}
	var seed bytes.Buffer
	if err := q.Snapshot(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	// The same shape with every optional field dropped: a short input
	// keeps the mutator on the fields that decide scheduling.
	f.Add([]byte(`{"version":1,"jobs":[{"id":1,"state":"leased","attempt":1},{"id":2,"state":"pending","dedup_of":1},{"id":3,"state":"done"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		clk := NewSimClock(time.Unix(5, 0).UTC())
		q, err := Restore(bytes.NewReader(data), Options{
			Clock:       clk,
			Metrics:     telemetry.NewRegistry(),
			LeaseTTL:    time.Second,
			BackoffBase: time.Millisecond,
		})
		if err != nil {
			return
		}
		limit := 8*len(q.Jobs()) + 8
		for step := 0; !drained(q.Jobs()); step++ {
			if step > limit {
				t.Fatalf("queue not drained after %d steps: %+v", limit, q.Jobs())
			}
			if j, ok := q.Lease("fuzz"); ok {
				if _, err := q.Complete(j.ID, j.Attempt, "fuzz", Result{}); err != nil {
					t.Fatal(err)
				}
				continue
			}
			at, ok := q.NextWake()
			if !ok {
				t.Fatalf("jobs left unfinished with nothing to lease or wait for: %+v", q.Jobs())
			}
			clk.Advance(at)
		}
	})
}

// drained reports whether every job is done or failed.
func drained(jobs []Job) bool {
	for _, j := range jobs {
		if j.State != Done && j.State != Failed {
			return false
		}
	}
	return true
}
