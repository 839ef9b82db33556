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
// yields a queue in which every job reaches exactly one terminal state
// (see checkRestoreDrains).
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
	// A lease whose retries are spent: the drain's first Lease call
	// expires it, and the job fails.
	f.Add([]byte(`{"version":1,"jobs":[{"id":1,"state":"leased","attempt":3}]}`))

	f.Fuzz(checkRestoreDrains)
}

// FuzzRestoreJobs is FuzzRestore's structured companion: it decodes
// its bytes into job records — state, dedup_of and attempt, the fields
// that decide scheduling — and encodes them as a snapshot, so every
// input reaches Restore well-formed and the mutator explores queue
// shapes rather than JSON syntax.
func FuzzRestoreJobs(f *testing.F) {
	// The FuzzRestore seed shape: leased leader, parked follower, done.
	f.Add([]byte{byte(Leased), 0, 1, byte(Pending), 1, 0, byte(Done), 0, 1})
	f.Add([]byte{byte(Leased), 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(snapshot{Version: snapshotVersion, Jobs: jobsFromBytes(data)}); err != nil {
			t.Fatal(err)
		}
		checkRestoreDrains(t, buf.Bytes())
	})
}

// jobsFromBytes decodes up to 16 job records from data, three bytes a
// job: state, dedup_of (0 = not parked), attempt.
func jobsFromBytes(data []byte) []Job {
	n := len(data) / 3
	if n > 16 {
		n = 16
	}
	jobs := make([]Job, n)
	for i := range jobs {
		b := data[3*i : 3*i+3]
		jobs[i] = Job{ID: i + 1, State: State(b[0] % byte(numStates)), DedupOf: int(b[1]) % (n + 1), Attempt: int(b[2] % 4)}
	}
	return jobs
}

// checkRestoreDrains restores a snapshot and, unless Restore rejects
// it, drains the queue: it leases and completes whatever is ready and
// otherwise jumps the clock to the queue's next wake (backoff or lease
// expiry), so a stuck job shows up as a drain that runs out of steps.
func checkRestoreDrains(t *testing.T, data []byte) {
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
		// Lease may itself have settled the last jobs: an expired lease
		// with its retries spent fails the job.
		at, ok := q.NextWake()
		switch {
		case ok:
			clk.Advance(at)
		case !drained(q.Jobs()):
			t.Fatalf("jobs left unfinished with nothing to lease or wait for: %+v", q.Jobs())
		}
	}
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
