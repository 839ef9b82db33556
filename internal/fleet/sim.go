package fleet

import (
	"container/heap"
	"fmt"
	"time"
)

// Outcome is what a simulated worker does with a leased job.
type Outcome int

// The simulated execution outcomes.
const (
	// OutcomeDone completes the job after the modeled seconds.
	OutcomeDone Outcome = iota
	// OutcomeTransient reports a transient failure after the modeled
	// seconds; the queue requeues with backoff (or fails the job when
	// attempts are exhausted).
	OutcomeTransient
	// OutcomeTerminal reports a terminal failure; no retry.
	OutcomeTerminal
	// OutcomeCrash kills the worker mid-lease: nothing is ever
	// reported, the worker leases no further jobs, and the job comes
	// back through heartbeat-lease expiry — the simulated version of
	// SIGKILL.
	OutcomeCrash
)

// WorkerModel decides how a leased job executes on a virtual worker:
// the modeled execution time, the outcome, and (for OutcomeDone) the
// result. Models must be pure functions of the job (ID, spec,
// attempt) for the simulation to stay deterministic.
type WorkerModel func(j Job) (seconds float64, outcome Outcome, res Result)

// SimConfig parameterizes a discrete-event run.
type SimConfig struct {
	// Workers is the virtual fleet size.
	Workers int
	// Queue configures the scheduler core; its Clock is overridden by
	// the sim's clock.
	Queue Options
	// Model executes leased jobs; nil completes every job instantly.
	Model WorkerModel
	// Start anchors the simulated clock; the zero value selects the
	// Unix epoch so logs and stats are wall-time independent.
	Start time.Time
}

// Sim drives the Queue state machine — the exact code the networked
// master runs — with a simulated clock and virtual pull workers,
// making it the deterministic twin of the live service: same leases,
// same retries, same transitions, in discrete-event time.
type Sim struct {
	clock *SimClock
	start time.Time
	cfg   SimConfig

	// Q is the scheduler core under simulation.
	Q *Queue

	events eventHeap
	seq    int
	idle   []bool
	dead   []bool
	onDone map[int]func(*Sim, Job)

	hasWake bool
	wakeAt  time.Time

	totalWait, maxWait, busy float64
}

// NewSim builds a simulation. Jobs are added with SubmitAt before Run
// (and with SubmitNow from completion callbacks while running).
func NewSim(cfg SimConfig) *Sim {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	start := cfg.Start
	if start.IsZero() {
		start = time.Unix(0, 0).UTC()
	}
	clock := NewSimClock(start)
	qopt := cfg.Queue
	qopt.Clock = clock
	s := &Sim{
		clock:  clock,
		start:  start,
		cfg:    cfg,
		Q:      NewQueue(qopt),
		idle:   make([]bool, cfg.Workers),
		dead:   make([]bool, cfg.Workers),
		onDone: map[int]func(*Sim, Job){},
	}
	for i := range s.idle {
		s.idle[i] = true
	}
	return s
}

// SubmitAt schedules a job submission at the given offset from the
// simulation start. onDone (optional) fires when the job's completion
// is applied; it may submit follow-on jobs via SubmitNow, which is
// how dependent jobs chain.
func (s *Sim) SubmitAt(offset time.Duration, spec JobSpec, onDone func(*Sim, Job)) {
	s.push(simEvent{at: s.start.Add(offset), kind: evSubmit, spec: spec, onDone: onDone})
}

// SubmitNow submits a job at the current simulated time; only valid
// from inside Run (i.e. from an onDone callback).
func (s *Sim) SubmitNow(spec JobSpec, onDone func(*Sim, Job)) {
	s.push(simEvent{at: s.clock.Now(), kind: evSubmit, spec: spec, onDone: onDone})
}

// Now returns the current simulated time.
func (s *Sim) Now() time.Time { return s.clock.Now() }

// BusySeconds is the summed execution time of every attempt that ran
// to a report (crashed attempts contribute nothing).
func (s *Sim) BusySeconds() float64 { return s.busy }

// Timelines renders every job's event timeline in the fixed
// DumpTimelines format. Because the sim's schedule is deterministic,
// repeated runs of the same configuration produce byte-identical
// output — pinned by the timeline determinism tests.
func (s *Sim) Timelines() string { return s.Q.DumpTimelines() }

// TotalWaitSeconds and MaxWaitSeconds aggregate queue waits over all
// leases.
func (s *Sim) TotalWaitSeconds() float64 { return s.totalWait }

// MaxWaitSeconds is the largest single queue wait.
func (s *Sim) MaxWaitSeconds() float64 { return s.maxWait }

// Run processes events until none remain: all submitted work has
// reached a terminal state, or no live worker can make progress.
func (s *Sim) Run() error {
	// Guard against event-loop bugs: the event count is bounded by
	// submissions + attempts + wakes, all finite.
	const maxEvents = 50_000_000
	for n := 0; s.events.Len() > 0; n++ {
		if n > maxEvents {
			return fmt.Errorf("fleet: simulation exceeded %d events (event-loop bug?)", maxEvents)
		}
		e := heap.Pop(&s.events).(simEvent)
		if e.kind == evWake {
			// Discard wakes that can no longer change anything (all
			// work resolved) without advancing the clock, so the
			// simulated makespan ends at the last real completion
			// rather than at a stale lease-expiry deadline.
			if st := s.Q.Stats(); st.Pending+st.Leased == 0 {
				s.hasWake = false
				continue
			}
		}
		s.clock.Advance(e.at)
		switch e.kind {
		case evSubmit:
			id, err := s.Q.Submit(e.spec)
			if err != nil {
				return err
			}
			if e.onDone != nil {
				s.onDone[id] = e.onDone
			}
		case evFinish:
			s.idle[e.worker] = true
			switch e.outcome {
			case OutcomeDone:
				applied, err := s.Q.Complete(e.jobID, e.attempt, simWorkerName(e.worker), e.res)
				if err != nil {
					return err
				}
				if applied {
					if fn := s.onDone[e.jobID]; fn != nil {
						j, err := s.Q.Job(e.jobID)
						if err != nil {
							return err
						}
						fn(s, j)
					}
				}
			case OutcomeTransient, OutcomeTerminal:
				if err := s.Q.Fail(e.jobID, e.attempt, simWorkerName(e.worker),
					e.outcome == OutcomeTerminal, "injected failure"); err != nil {
					return err
				}
			}
		case evWake:
			s.hasWake = false
			s.Q.ExpireLeases()
		}
		s.dispatch()
		s.armWake()
	}
	return nil
}

// dispatch hands ready jobs to idle workers in worker order; Lease
// itself expires lapsed leases first, so requeues are visible.
func (s *Sim) dispatch() {
	for w := 0; w < s.cfg.Workers; w++ {
		if !s.idle[w] || s.dead[w] {
			continue
		}
		j, ok := s.Q.Lease(simWorkerName(w))
		if !ok {
			return
		}
		s.idle[w] = false
		wait := s.clock.Now().Sub(j.ReadyAt).Seconds()
		s.totalWait += wait
		if wait > s.maxWait {
			s.maxWait = wait
		}
		secs, outcome, res := 0.0, OutcomeDone, Result{}
		if s.cfg.Model != nil {
			secs, outcome, res = s.cfg.Model(j)
		}
		if outcome == OutcomeCrash {
			s.dead[w] = true
			continue // the lease dangles until heartbeat expiry
		}
		s.busy += secs
		res.Seconds = secs
		s.push(simEvent{
			at:      s.clock.Now().Add(durationOf(secs)),
			kind:    evFinish,
			worker:  w,
			jobID:   j.ID,
			attempt: j.Attempt,
			outcome: outcome,
			res:     res,
		})
	}
}

// armWake keeps exactly one pending wake event at the queue's next
// self-triggered instant (backoff expiry or lease timeout).
func (s *Sim) armWake() {
	t, ok := s.Q.NextWake()
	if !ok {
		return
	}
	if s.hasWake && !t.Before(s.wakeAt) {
		return
	}
	s.hasWake = true
	s.wakeAt = t
	s.push(simEvent{at: t, kind: evWake})
}

func (s *Sim) push(e simEvent) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

// durationOf converts model seconds to a duration.
func durationOf(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// simWorkerName names virtual worker w.
func simWorkerName(w int) string { return fmt.Sprintf("sim-w%d", w) }

// Event kinds.
const (
	evSubmit = iota
	evFinish
	evWake
)

// simEvent is one entry of the discrete-event heap, ordered by time
// with FIFO sequence tie-breaking so simulation order — and therefore
// every downstream byte — is deterministic.
type simEvent struct {
	at   time.Time
	seq  int
	kind int

	// evSubmit
	spec   JobSpec
	onDone func(*Sim, Job)

	// evFinish
	worker  int
	jobID   int
	attempt int
	outcome Outcome
	res     Result
}

type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
