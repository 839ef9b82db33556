package fleet

import (
	"container/heap"
	"fmt"
	"sync"
	"time"

	"vbench/internal/cas"
	"vbench/internal/telemetry"
)

// Options parameterizes a Queue. The zero value selects sane wall
// service defaults.
type Options struct {
	// Clock drives all scheduling decisions; nil selects WallClock.
	Clock Clock
	// LeaseTTL is the heartbeat deadline of a lease; a worker that
	// goes silent for longer loses the job. Default 10s.
	LeaseTTL time.Duration
	// MaxAttempts bounds leases per job; a transient failure or
	// expiry on the last attempt is terminal. Default 3.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential requeue
	// backoff: attempt n waits BackoffBase << (n-1), capped at
	// BackoffMax. Defaults 250ms and 30s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Metrics receives the fleet.* counters and gauges; nil selects
	// telemetry.Default.
	Metrics *telemetry.Registry
	// OnTransition observes every validated state change (including
	// submission, as from "none"). It is invoked under the queue lock
	// with a detached job copy, in transition order; it must be fast
	// and must not call back into the queue. Server.EnableTracing uses
	// it to open and close master-side lease spans.
	OnTransition func(j Job, from, to, reason string)
	// Cache, when non-nil, is the shared content-addressed transcode
	// store. Submissions whose result is already stored complete
	// instantly without a lease, and concurrent submissions of the
	// same cache key collapse onto one leader job (the rest park as
	// followers and settle from the leader's result).
	Cache *cas.Store
}

func (o Options) withDefaults() Options {
	if o.Clock == nil {
		o.Clock = WallClock{}
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 250 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 30 * time.Second
	}
	if o.Metrics == nil {
		o.Metrics = telemetry.Default
	}
	return o
}

// Stats is a consistent snapshot of the queue's accounting. All
// fields are derived from state transitions, so for a fixed workload
// and fault pattern they are identical regardless of worker count or
// completion order — the property the golden-stat tests pin.
type Stats struct {
	Submitted int `json:"submitted"`
	Pending   int `json:"pending"`
	Leased    int `json:"leased"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`

	Leases        int `json:"leases"`
	Completions   int `json:"completions"`
	Retries       int `json:"retries"`
	LeaseExpiries int `json:"lease_expiries"`
	DuplicateAcks int `json:"duplicate_acks"`
	StaleAcks     int `json:"stale_acks"`
	// CacheDedupHits counts jobs completed without a worker lease:
	// submissions served straight from the transcode cache plus
	// followers settled from a deduplicated leader's result.
	CacheDedupHits int `json:"cache_dedup_hits"`
}

// Queue is the scheduler core: a durable in-memory job queue whose
// every state change is validated against the Job state machine. It
// is safe for concurrent use; all methods take the queue lock, and
// hot-path metric updates are lock-free atomics on cached handles.
type Queue struct {
	mu       sync.Mutex
	opt      Options
	start    time.Time
	jobs     []*Job // jobs[i].ID == i+1
	ready    readyHeap
	exp      expiryHeap
	stats    Stats
	eventSeq int64 // queue-wide timeline sequence
	workers  map[string]*workerAccount

	// Dedup index: while a leader job for a cache key is in flight
	// (pending or leased, not yet terminal), later submissions of the
	// same key park as followers instead of entering the ready heap.
	dedupLeader map[cas.Key]int // key -> in-flight leader job ID
	dedupKey    map[int]cas.Key // leader job ID -> its key
	followers   map[int][]int   // leader job ID -> parked follower IDs

	mSubmitted, mLeases, mCompletions, mFailures *telemetry.Counter
	mRetries, mExpiries, mDupAcks, mStaleAcks    *telemetry.Counter
	mHeartbeats, mTimelineEvents, mCacheDedup    *telemetry.Counter
	gPending, gLeased, gDone, gFailed, gDepth    *telemetry.Gauge
	gWorkersSeen                                 *telemetry.Gauge
}

// workerAccount is the master's per-worker liveness and activity
// ledger, fed by every request a worker makes. It observes the
// workers; it never steers scheduling, so the deterministic twin's
// timelines and stats are unaffected by it.
type workerAccount struct {
	lastSeen                                  time.Time
	leases, heartbeats, completions, failures int64
}

// NewQueue returns an empty queue.
func NewQueue(opt Options) *Queue {
	opt = opt.withDefaults()
	q := &Queue{
		opt:         opt,
		start:       opt.Clock.Now(),
		workers:     map[string]*workerAccount{},
		dedupLeader: map[cas.Key]int{},
		dedupKey:    map[int]cas.Key{},
		followers:   map[int][]int{},
	}
	q.bindMetrics()
	return q
}

func (q *Queue) bindMetrics() {
	r := q.opt.Metrics
	q.mSubmitted = r.Counter("fleet.jobs_submitted")
	q.mLeases = r.Counter("fleet.leases")
	q.mCompletions = r.Counter("fleet.completions")
	q.mFailures = r.Counter("fleet.failures")
	q.mRetries = r.Counter("fleet.retries")
	q.mExpiries = r.Counter("fleet.lease_expiries")
	q.mDupAcks = r.Counter("fleet.duplicate_acks")
	q.mStaleAcks = r.Counter("fleet.stale_acks")
	q.mHeartbeats = r.Counter("fleet.heartbeats")
	q.mTimelineEvents = r.Counter("fleet.timeline_events")
	q.mCacheDedup = r.Counter("fleet.cache_dedup_hits")
	q.gWorkersSeen = r.Gauge("fleet.workers_seen")
	q.gPending = r.Gauge("fleet.jobs_pending")
	q.gLeased = r.Gauge("fleet.jobs_leased")
	q.gDone = r.Gauge("fleet.jobs_done")
	q.gFailed = r.Gauge("fleet.jobs_failed")
	q.gDepth = r.Gauge("fleet.queue_depth")
}

// Metrics returns the registry the queue reports into.
func (q *Queue) Metrics() *telemetry.Registry { return q.opt.Metrics }

// LeaseTTL returns the configured lease duration (advertised to
// workers so they can size their heartbeat interval).
func (q *Queue) LeaseTTL() time.Duration { return q.opt.LeaseTTL }

func (q *Queue) now() time.Time { return q.opt.Clock.Now() }

// setState performs one validated transition and all the bookkeeping
// that hangs off it: per-state gauges, the job's event timeline, and
// the per-state counts in Stats. Callers hold q.mu.
func (q *Queue) setState(j *Job, to State, reason string) {
	from := j.State
	if !validEdge[from][to] {
		panic(fmt.Sprintf("fleet: invalid job state transition %v -> %v (job %d, reason %s)", from, to, j.ID, reason))
	}
	q.countState(from, -1)
	j.State = to
	q.countState(to, +1)
	q.record(j, from.String(), to.String(), reason)
}

// record funnels every state change — setState edges plus submission
// — into the two observability sinks: the job's bounded event
// timeline, and the optional transition observer. Callers hold q.mu.
func (q *Queue) record(j *Job, from, to, reason string) {
	q.recordTimeline(j, from, to, reason)
	if q.opt.OnTransition != nil {
		q.opt.OnTransition(j.clone(), from, to, reason)
	}
}

// touchWorker updates worker's liveness ledger. Callers hold q.mu and
// then bump the relevant per-activity counter on the returned account.
func (q *Queue) touchWorker(worker string) *workerAccount {
	a, ok := q.workers[worker]
	if !ok {
		a = &workerAccount{}
		q.workers[worker] = a
		q.gWorkersSeen.Set(float64(len(q.workers)))
	}
	a.lastSeen = q.now()
	return a
}

// countState maintains the per-state tallies and gauges.
func (q *Queue) countState(s State, d int) {
	switch s {
	case Pending:
		q.stats.Pending += d
		q.gPending.Set(float64(q.stats.Pending))
	case Leased:
		q.stats.Leased += d
		q.gLeased.Set(float64(q.stats.Leased))
	case Done:
		q.stats.Done += d
		q.gDone.Set(float64(q.stats.Done))
	case Failed:
		q.stats.Failed += d
		q.gFailed.Set(float64(q.stats.Failed))
	}
	q.gDepth.Set(float64(q.stats.Pending + q.stats.Leased))
}

// SetOnTransition installs (or, with nil, removes) the transition
// observer after construction; see Options.OnTransition for the
// contract. Server.EnableTracing uses it.
func (q *Queue) SetOnTransition(fn func(j Job, from, to, reason string)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.opt.OnTransition = fn
}

// Submit validates and enqueues a job, returning its ID (IDs are
// dense, 1-based, in submission order). With a transcode cache
// configured, a submission whose result is already stored completes
// immediately (no lease is ever granted), and a submission whose key
// matches an in-flight job parks as a follower and settles when that
// leader resolves.
func (q *Queue) Submit(spec JobSpec) (int, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	// Consult the cache before taking the queue lock: the disk tier
	// does real I/O and must never run under q.mu.
	var key cas.Key
	var cached *cas.Outcome
	keyed := false
	if q.opt.Cache != nil {
		if k, ok := SpecCacheKey(spec); ok {
			key, keyed = k, true
			if o, ok := q.opt.Cache.Get(k); ok {
				cached = o
			}
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	j := &Job{
		ID:          len(q.jobs) + 1,
		Spec:        spec,
		State:       Pending,
		SubmittedAt: now,
		ReadyAt:     now,
	}
	q.jobs = append(q.jobs, j)
	q.stats.Submitted++
	q.mSubmitted.Inc()
	q.countState(Pending, +1)
	q.record(j, "none", "pending", "submit")
	switch {
	case cached != nil:
		res := resultFromOutcome(cached)
		q.completeUnleasedLocked(j, res, "cache_hit")
	case keyed:
		if leader, ok := q.dedupLeader[key]; ok {
			j.DedupOf = leader
			q.followers[leader] = append(q.followers[leader], j.ID)
			q.record(j, "pending", "pending", "dedup_follower")
			break // parked: never enters the ready heap
		}
		q.dedupLeader[key] = j.ID
		q.dedupKey[j.ID] = key
		heap.Push(&q.ready, readyEntry{at: j.ReadyAt, id: j.ID})
	default:
		heap.Push(&q.ready, readyEntry{at: j.ReadyAt, id: j.ID})
	}
	return j.ID, nil
}

// completeUnleasedLocked finishes a pending job from a cached result,
// without a lease. Callers hold q.mu.
func (q *Queue) completeUnleasedLocked(j *Job, res Result, reason string) {
	res.Worker = "cache"
	res.Attempt = 0
	j.Result = &res
	j.Worker = "cache"
	j.DoneAt = q.now()
	q.setState(j, Done, reason)
	j.Completions++
	q.stats.Completions++
	q.mCompletions.Inc()
	q.stats.CacheDedupHits++
	q.mCacheDedup.Inc()
}

// dropLeaderLocked removes a resolved leader from the dedup index and
// returns its still-pending followers. A leader may have followers
// without a registered key (a snapshot restored without a cache);
// the followers still resolve through it. Callers hold q.mu.
func (q *Queue) dropLeaderLocked(leader *Job) []int {
	if key, ok := q.dedupKey[leader.ID]; ok {
		delete(q.dedupKey, leader.ID)
		if q.dedupLeader[key] == leader.ID {
			delete(q.dedupLeader, key)
		}
	}
	ids := q.followers[leader.ID]
	delete(q.followers, leader.ID)
	live := ids[:0]
	for _, id := range ids {
		if q.jobs[id-1].State == Pending {
			live = append(live, id)
		}
	}
	return live
}

// settleFollowersLocked completes every follower parked behind a
// just-completed leader, copying its result. Callers hold q.mu.
func (q *Queue) settleFollowersLocked(leader *Job) {
	if leader.Result == nil {
		q.dropLeaderLocked(leader)
		return
	}
	for _, id := range q.dropLeaderLocked(leader) {
		f := q.jobs[id-1]
		res := *leader.Result
		q.completeUnleasedLocked(f, res, "cache_dedup")
	}
}

// promoteFollowerLocked reacts to a leader failing terminally: the
// oldest pending follower becomes the new leader (its own attempts
// start fresh) and re-enters the ready heap; the rest re-park behind
// it. Callers hold q.mu.
func (q *Queue) promoteFollowerLocked(leader *Job) {
	key, hasKey := q.dedupKey[leader.ID]
	ids := q.dropLeaderLocked(leader)
	if len(ids) == 0 {
		return
	}
	next := q.jobs[ids[0]-1]
	next.DedupOf = 0
	next.ReadyAt = q.now()
	if hasKey {
		q.dedupLeader[key] = next.ID
		q.dedupKey[next.ID] = key
	}
	rest := append([]int(nil), ids[1:]...)
	q.followers[next.ID] = rest
	for _, id := range rest {
		q.jobs[id-1].DedupOf = next.ID
	}
	heap.Push(&q.ready, readyEntry{at: next.ReadyAt, id: next.ID})
	q.record(next, "pending", "pending", "dedup_promoted")
}

// get returns the job record or an error for an unknown ID. Callers
// hold q.mu.
func (q *Queue) get(id int) (*Job, error) {
	if id < 1 || id > len(q.jobs) {
		return nil, fmt.Errorf("fleet: unknown job %d", id)
	}
	return q.jobs[id-1], nil
}

// Lease hands the oldest ready pending job to worker, starting its
// next attempt under a fresh heartbeat deadline. ok is false when
// nothing is leasable right now (the queue may still hold jobs in
// backoff or behind other leases).
func (q *Queue) Lease(worker string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	acct := q.touchWorker(worker) // a polling worker is a live worker
	q.expireLocked(now)
	for q.ready.Len() > 0 {
		e := q.ready[0]
		if e.at.After(now) {
			break // earliest ready time still in the future
		}
		heap.Pop(&q.ready)
		j := q.jobs[e.id-1]
		// Lazy deletion: the entry is stale if the job moved on (or
		// was requeued with a different ready time) since it was
		// pushed.
		if j.State != Pending || !j.ReadyAt.Equal(e.at) {
			continue
		}
		j.Attempt++
		j.Worker = worker
		j.LeaseExpiry = now.Add(q.opt.LeaseTTL)
		j.LeasedAt = now
		if j.StartedAt.IsZero() {
			j.StartedAt = now
		}
		q.setState(j, Leased, "lease")
		q.stats.Leases++
		q.mLeases.Inc()
		acct.leases++
		heap.Push(&q.exp, expiryEntry{at: j.LeaseExpiry, id: j.ID, attempt: j.Attempt})
		return j.clone(), true
	}
	return Job{}, false
}

// Heartbeat extends the lease held by worker for the given attempt.
// An error means the lease is no longer current — the worker should
// abandon the job (its eventual completion would be ignored as
// stale).
func (q *Queue) Heartbeat(id, attempt int, worker string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.touchWorker(worker).heartbeats++
	q.mHeartbeats.Inc()
	j, err := q.get(id)
	if err != nil {
		return err
	}
	if j.State != Leased || j.Attempt != attempt || j.Worker != worker {
		return fmt.Errorf("fleet: job %d attempt %d no longer leased to %s (state %v, attempt %d)",
			id, attempt, worker, j.State, j.Attempt)
	}
	j.LeaseExpiry = q.now().Add(q.opt.LeaseTTL)
	heap.Push(&q.exp, expiryEntry{at: j.LeaseExpiry, id: j.ID, attempt: j.Attempt})
	return nil
}

// Complete applies a completion idempotently. Exactly one completion
// per job is applied (applied == true); re-acknowledging a done job
// is a harmless duplicate, and acknowledging a lapsed attempt (the
// lease expired and the job moved on) is stale — both are counted
// and ignored, never an error, so workers can retry acks safely.
func (q *Queue) Complete(id, attempt int, worker string, res Result) (applied bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.touchWorker(worker).completions++
	j, err := q.get(id)
	if err != nil {
		return false, err
	}
	switch {
	case j.State == Done:
		j.DupAcks++
		q.stats.DuplicateAcks++
		q.mDupAcks.Inc()
		return false, nil
	case j.State == Leased && j.Attempt == attempt:
		res.Worker = worker
		res.Attempt = attempt
		j.Result = &res
		j.DoneAt = q.now()
		j.Worker = worker
		q.setState(j, Done, "complete")
		j.Completions++
		q.stats.Completions++
		q.mCompletions.Inc()
		q.settleFollowersLocked(j)
		return true, nil
	default:
		j.StaleAcks++
		q.stats.StaleAcks++
		q.mStaleAcks.Inc()
		return false, nil
	}
}

// Fail reports an execution failure for an attempt. Terminal errors
// (and transient errors on the final attempt) fail the job; earlier
// transient errors requeue it with exponential backoff. Stale and
// duplicate reports are counted and ignored like in Complete.
func (q *Queue) Fail(id, attempt int, worker string, terminal bool, msg string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.touchWorker(worker).failures++
	j, err := q.get(id)
	if err != nil {
		return err
	}
	if j.State != Leased || j.Attempt != attempt {
		if j.State == Done {
			j.DupAcks++
			q.stats.DuplicateAcks++
			q.mDupAcks.Inc()
		} else {
			j.StaleAcks++
			q.stats.StaleAcks++
			q.mStaleAcks.Inc()
		}
		return nil
	}
	j.LastErr = msg
	if terminal {
		q.setState(j, Failed, "terminal_error")
		q.mFailures.Inc()
		q.promoteFollowerLocked(j)
		return nil
	}
	q.requeueLocked(j, "transient_error")
	return nil
}

// requeueLocked moves a leased job back to pending with backoff, or
// to failed when its attempts are exhausted. Callers hold q.mu.
func (q *Queue) requeueLocked(j *Job, reason string) {
	if j.Attempt >= q.opt.MaxAttempts {
		q.setState(j, Failed, reason+"_retries_exhausted")
		q.mFailures.Inc()
		q.promoteFollowerLocked(j)
		return
	}
	j.ReadyAt = q.now().Add(q.backoff(j.Attempt))
	j.Retries++
	q.setState(j, Pending, reason)
	q.stats.Retries++
	q.mRetries.Inc()
	heap.Push(&q.ready, readyEntry{at: j.ReadyAt, id: j.ID})
}

// backoff returns the requeue delay after the given failed attempt.
func (q *Queue) backoff(attempt int) time.Duration {
	d := q.opt.BackoffBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= q.opt.BackoffMax {
			return q.opt.BackoffMax
		}
	}
	if d > q.opt.BackoffMax {
		d = q.opt.BackoffMax
	}
	return d
}

// ExpireLeases requeues every job whose heartbeat deadline has
// passed. Lease and the master's periodic sweep call it; the sim twin
// calls it implicitly through Lease.
func (q *Queue) ExpireLeases() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(q.now())
}

// expireLocked processes the expiry heap up to now. Entries are lazy:
// a heartbeat pushes a new entry and the superseded one is skipped
// when popped. Callers hold q.mu.
func (q *Queue) expireLocked(now time.Time) {
	for q.exp.Len() > 0 {
		e := q.exp[0]
		if e.at.After(now) {
			return
		}
		heap.Pop(&q.exp)
		j := q.jobs[e.id-1]
		if j.State != Leased || j.Attempt != e.attempt || j.LeaseExpiry.After(now) {
			continue // superseded by a heartbeat, or the attempt already resolved
		}
		j.Expiries++
		q.stats.LeaseExpiries++
		q.mExpiries.Inc()
		j.LastErr = fmt.Sprintf("lease expired (worker %s, attempt %d)", j.Worker, j.Attempt)
		q.requeueLocked(j, "lease_expired")
	}
}

// NextWake returns the earliest strictly-future instant at which the
// queue's state can change without external input: a backoff ready
// time or a lease expiry. The discrete-event twin uses it to schedule
// wake events; ok is false when no such instant exists.
func (q *Queue) NextWake() (time.Time, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	var t time.Time
	var ok bool
	for _, j := range q.jobs {
		var c time.Time
		switch j.State {
		case Pending:
			c = j.ReadyAt
		case Leased:
			c = j.LeaseExpiry
		default:
			continue
		}
		if !c.After(now) {
			continue
		}
		if !ok || c.Before(t) {
			t, ok = c, true
		}
	}
	return t, ok
}

// Stats returns a snapshot of the queue accounting.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Jobs returns detached copies of every job, in ID order.
func (q *Queue) Jobs() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, len(q.jobs))
	for i, j := range q.jobs {
		out[i] = j.clone()
	}
	return out
}

// Job returns a detached copy of one job.
func (q *Queue) Job(id int) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.get(id)
	if err != nil {
		return Job{}, err
	}
	return j.clone(), nil
}

// readyEntry orders pending jobs by (ready time, ID).
type readyEntry struct {
	at time.Time
	id int
}

type readyHeap []readyEntry

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].id < h[j].id
}
func (h readyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x interface{}) { *h = append(*h, x.(readyEntry)) }
func (h *readyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// expiryEntry orders lease deadlines; attempt makes superseded
// entries detectable.
type expiryEntry struct {
	at      time.Time
	id      int
	attempt int
}

type expiryHeap []expiryEntry

func (h expiryHeap) Len() int { return len(h) }
func (h expiryHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].id < h[j].id
}
func (h expiryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x interface{}) { *h = append(*h, x.(expiryEntry)) }
func (h *expiryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
