// Package fleet is the distributed transcoding service of this
// repository: a master that owns a durable in-memory job queue with a
// validated state machine (pending → leased → done/failed, idempotent
// completion, heartbeat-based lease expiry, bounded retries with
// exponential backoff, transient-vs-terminal error classification)
// and pull-based workers that run real internal/codec encodes.
//
// The scheduler core is clock-abstracted: cmd/vbenchd drives the
// Queue with a wall clock over net/http, and the discrete-event Sim
// in this package drives the identical Queue code with a simulated
// clock, making it the deterministic twin the tests run the scheduler
// on.
package fleet

import (
	"fmt"
	"math"
	"time"
)

// State is a job's position in the lifecycle state machine.
type State int

// The job states. Done and Failed are terminal.
const (
	Pending State = iota // submitted or requeued, waiting for a lease
	Leased               // held by a worker under a heartbeat lease
	Done                 // completed exactly once
	Failed               // terminal error or retries exhausted
	numStates
)

var stateNames = [numStates]string{"pending", "leased", "done", "failed"}

// String names the state.
func (s State) String() string {
	if s < 0 || s >= numStates {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// MarshalText serializes the state name (for snapshots and the HTTP
// API).
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name.
func (s *State) UnmarshalText(b []byte) error {
	for i, n := range stateNames {
		if n == string(b) {
			*s = State(i)
			return nil
		}
	}
	return fmt.Errorf("fleet: unknown state %q", b)
}

// validEdge is the transition relation of the state machine. Every
// state change funnels through Queue.setState, which panics on an
// edge not listed here — an invalid transition is a scheduler bug,
// never a recoverable condition.
var validEdge = [numStates][numStates]bool{
	// Done = served from the transcode cache, no lease needed;
	// Pending self-edge = a dedup role change (parked as follower,
	// promoted to leader) recorded on the timeline without the job
	// leaving the pending state.
	Pending: {Pending: true, Leased: true, Done: true},
	Leased:  {Done: true, Failed: true, Pending: true}, // Pending = expiry or transient retry
}

// Job kinds understood by the vbenchd worker. The queue itself is
// payload-agnostic: any Kind round-trips through it, so embedders can
// schedule their own job types on the same state machine.
const (
	KindEncode = "encode" // a real internal/codec transcode
	KindNoop   = "noop"   // sleeps SleepMS; used by tests and smoke runs
)

// JobSpec describes one unit of work. For KindEncode it names a
// corpus clip, an encoder ("family-preset", e.g. "x264-medium" or
// "x265-veryslow"), and the transcode parameters.
type JobSpec struct {
	// Kind selects the payload type; empty means KindEncode.
	Kind string `json:"kind,omitempty"`
	// Tag is an opaque caller label (e.g. the harness grid cell).
	Tag string `json:"tag,omitempty"`

	// Encode payload.
	Clip        string  `json:"clip,omitempty"`
	Scale       int     `json:"scale,omitempty"`
	Duration    float64 `json:"duration,omitempty"`
	Encoder     string  `json:"encoder,omitempty"`
	RC          string  `json:"rc,omitempty"` // "cqp" (default), "abr", "2pass"
	QP          int     `json:"qp,omitempty"`
	BitrateBPS  float64 `json:"bitrate_bps,omitempty"`
	KeyInterval int     `json:"key_interval,omitempty"`
	Slices      int     `json:"slices,omitempty"`
	// RowsParallel selects wavefront row parallelism inside each slice
	// (see codec.Config.RowsParallel); 0 lets the worker's own default
	// apply.
	RowsParallel int `json:"rows_parallel,omitempty"`

	// Noop payload.
	SleepMS int `json:"sleep_ms,omitempty"`

	// FailFirst injects a transient failure on the first N attempts;
	// fault-injection hook for tests and the e2e smoke.
	FailFirst int `json:"fail_first,omitempty"`
}

// Validate checks what the queue can check without running the job:
// an encode spec must at least name its clip and encoder with
// positive geometry. Deep validation (unknown clip, bad QP) happens
// at execution time and classifies as terminal.
func (s JobSpec) Validate() error {
	switch s.Kind {
	case "", KindEncode:
		if s.Clip == "" || s.Encoder == "" {
			return fmt.Errorf("fleet: encode job needs clip and encoder (got clip=%q encoder=%q)", s.Clip, s.Encoder)
		}
		// A NaN duration slips past "<= 0" and would make a source-memo
		// key that never hits; +Inf is no clip length either.
		if s.Scale < 1 || s.Duration <= 0 || math.IsNaN(s.Duration) || math.IsInf(s.Duration, 0) {
			return fmt.Errorf("fleet: encode job needs scale >= 1 and a finite duration > 0 (got scale=%d duration=%v)", s.Scale, s.Duration)
		}
	default:
		// Other kinds (noop, embedder-defined) carry no queue-checked
		// payload.
	}
	return nil
}

// Result is what a completed job reports back.
type Result struct {
	// Bytes is the bitstream size (encode jobs).
	Bytes int64 `json:"bytes,omitempty"`
	// PSNR is the reconstruction quality in dB (encode jobs).
	PSNR float64 `json:"psnr,omitempty"`
	// Seconds is the modeled encode time under the engine's cost
	// model (or the slept time for noop jobs).
	Seconds float64 `json:"seconds,omitempty"`
	// InputBytes is the raw 4:2:0 input size (encode jobs); workers
	// derive their MB/s throughput histograms from it.
	InputBytes int64 `json:"input_bytes,omitempty"`
	// Worker and Attempt identify the execution that produced the
	// result.
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
}

// Job is one queue entry. The queue hands out value copies; the
// authoritative record lives behind the queue mutex.
type Job struct {
	ID    int     `json:"id"`
	Spec  JobSpec `json:"spec"`
	State State   `json:"state"`

	// Attempt counts leases granted so far; the current lease (while
	// Leased) is attempt number Attempt.
	Attempt int `json:"attempt"`
	// Worker holds the current (or last) lease.
	Worker string `json:"worker,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	// ReadyAt is when the job became (or becomes, after backoff)
	// leasable.
	ReadyAt time.Time `json:"ready_at"`
	// LeaseExpiry is the heartbeat deadline of the current lease.
	LeaseExpiry time.Time `json:"lease_expiry,omitempty"`
	// LeasedAt is when the current (or last) lease was granted; the
	// ops surface derives lease ages from it.
	LeasedAt  time.Time `json:"leased_at,omitempty"`
	StartedAt time.Time `json:"started_at,omitempty"`
	DoneAt    time.Time `json:"done_at,omitempty"`

	// Completions counts applied completions; the exactly-once
	// invariant is Completions <= 1, always.
	Completions int `json:"completions"`
	// DupAcks and StaleAcks count ignored duplicate (already done)
	// and stale (attempt no longer current) acknowledgements.
	DupAcks   int `json:"dup_acks,omitempty"`
	StaleAcks int `json:"stale_acks,omitempty"`
	// Expiries counts leases this job lost to heartbeat timeout.
	Expiries int `json:"expiries,omitempty"`
	// Retries counts requeues (transient failures and expiries).
	Retries int `json:"retries,omitempty"`
	// DedupOf, while the job is pending, names the in-flight leader
	// job computing the same cache key; this job is parked (never
	// leased) and completes from the leader's result. It is retained
	// after completion as provenance ("this result was deduplicated
	// from job N").
	DedupOf int `json:"dedup_of,omitempty"`

	Result  *Result `json:"result,omitempty"`
	LastErr string  `json:"last_err,omitempty"`

	// Timeline is the job's bounded event ring (most recent
	// timelineCap transitions); TimelineDropped counts older events
	// the ring shed. Persisted in snapshots like the rest of the job.
	Timeline        []TimelineEvent `json:"timeline,omitempty"`
	TimelineDropped int             `json:"timeline_dropped,omitempty"`
}

// clone returns a detached copy safe to hand outside the queue lock.
func (j *Job) clone() Job {
	c := *j
	if j.Result != nil {
		r := *j.Result
		c.Result = &r
	}
	if j.Timeline != nil {
		c.Timeline = append([]TimelineEvent(nil), j.Timeline...)
	}
	return c
}
