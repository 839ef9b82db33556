package fleet

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// snapshot is the on-disk master state: every job record plus the
// derived counters, so a restarted master resumes exactly where the
// old one stopped. Leases survive verbatim — a worker that outlived
// the master restart can still heartbeat and complete its attempt,
// and a worker that died with the master simply times out and the job
// requeues.
type snapshot struct {
	Version int   `json:"version"`
	Stats   Stats `json:"stats"`
	Jobs    []Job `json:"jobs"`
	// Start anchors the queue's relative clock (transition-log and
	// timeline timestamps), so timelines stay monotonic across a
	// master restart. Absent in pre-timeline snapshots; the restored
	// queue then restarts its clock at restore time.
	Start time.Time `json:"start,omitempty"`
}

const snapshotVersion = 1

// Snapshot serializes the queue state, each job's event timeline
// included.
func (q *Queue) Snapshot(w io.Writer) error {
	q.mu.Lock()
	s := snapshot{Version: snapshotVersion, Stats: q.stats, Start: q.start}
	s.Jobs = make([]Job, len(q.jobs))
	for i, j := range q.jobs {
		s.Jobs[i] = j.clone()
	}
	q.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// Restore rebuilds a queue from a Snapshot under the given options
// (clock, TTLs, and backoff come from opt, not the snapshot). The
// restored queue re-registers its gauges so the new registry reflects
// the recovered state immediately.
func Restore(r io.Reader, opt Options) (*Queue, error) {
	var s snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("fleet: decoding snapshot: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("fleet: snapshot version %d not supported (want %d)", s.Version, snapshotVersion)
	}
	q := NewQueue(opt)
	q.mu.Lock()
	defer q.mu.Unlock()
	q.stats = s.Stats
	if !s.Start.IsZero() {
		q.start = s.Start
	}
	q.jobs = make([]*Job, len(s.Jobs))
	for i := range s.Jobs {
		j := s.Jobs[i]
		if j.ID != i+1 {
			return nil, fmt.Errorf("fleet: snapshot job %d has ID %d (IDs must be dense)", i, j.ID)
		}
		q.jobs[i] = &j
		// The timeline rings ride in the job records; resuming the
		// queue-wide sequence past the highest persisted event keeps
		// post-restart events ordered after pre-restart ones.
		for _, e := range j.Timeline {
			if e.Seq > q.eventSeq {
				q.eventSeq = e.Seq
			}
		}
		switch j.State {
		case Pending:
			if j.DedupOf != 0 {
				// A parked dedup follower: it re-parks behind its
				// leader instead of re-entering the ready heap. Only
				// a leader still in flight ever settles it, so any
				// other parent would leave it pending forever.
				if !inFlightLeader(q.jobs[:i], j.DedupOf) {
					return nil, fmt.Errorf("fleet: snapshot job %d is parked behind job %d, which is not an earlier in-flight leader", j.ID, j.DedupOf)
				}
				q.followers[j.DedupOf] = append(q.followers[j.DedupOf], j.ID)
				break
			}
			heap.Push(&q.ready, readyEntry{at: j.ReadyAt, id: j.ID})
		case Leased:
			heap.Push(&q.exp, expiryEntry{at: j.LeaseExpiry, id: j.ID, attempt: j.Attempt})
		}
	}
	// Re-register dedup leaders so post-restore submissions of a key
	// already in flight keep parking. Keys are recomputed from specs —
	// they are content-addressed, not snapshot state. First in-flight
	// job per key wins, matching submission order.
	if q.opt.Cache != nil {
		for _, j := range q.jobs {
			if (j.State != Pending && j.State != Leased) || j.DedupOf != 0 {
				continue
			}
			key, ok := SpecCacheKey(j.Spec)
			if !ok {
				continue
			}
			if _, taken := q.dedupLeader[key]; !taken {
				q.dedupLeader[key] = j.ID
				q.dedupKey[j.ID] = key
			}
		}
	}
	// Re-derive the counter metrics and per-state gauges from the
	// restored accounting.
	q.mSubmitted.Add(int64(q.stats.Submitted))
	q.mLeases.Add(int64(q.stats.Leases))
	q.mCompletions.Add(int64(q.stats.Completions))
	q.mFailures.Add(int64(q.stats.Failed))
	q.mRetries.Add(int64(q.stats.Retries))
	q.mExpiries.Add(int64(q.stats.LeaseExpiries))
	q.mDupAcks.Add(int64(q.stats.DuplicateAcks))
	q.mStaleAcks.Add(int64(q.stats.StaleAcks))
	q.mCacheDedup.Add(int64(q.stats.CacheDedupHits))
	q.mTimelineEvents.Add(q.eventSeq)
	q.gPending.Set(float64(q.stats.Pending))
	q.gLeased.Set(float64(q.stats.Leased))
	q.gDone.Set(float64(q.stats.Done))
	q.gFailed.Set(float64(q.stats.Failed))
	q.gDepth.Set(float64(q.stats.Pending + q.stats.Leased))
	return q, nil
}

// inFlightLeader reports whether id names one of the earlier jobs that
// can still settle its dedup followers: leased, or pending and not
// itself parked behind another job.
func inFlightLeader(earlier []*Job, id int) bool {
	if id < 1 || id > len(earlier) {
		return false
	}
	l := earlier[id-1]
	return l.State == Leased || (l.State == Pending && l.DedupOf == 0)
}
