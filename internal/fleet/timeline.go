package fleet

import (
	"fmt"
	"strings"
)

// timelineCap bounds each job's event ring. A well-behaved job emits
// a handful of events (submit, lease, done); a job that churns through
// retries and expiries is exactly the one worth debugging, so the ring
// keeps the most recent events and counts what it dropped instead of
// growing without bound on a master that stays up for weeks.
const timelineCap = 32

// TimelineEvent is one structured state transition in a job's life,
// recorded at the queue's setState choke point. Seq is a queue-wide
// monotonic sequence number (total order across jobs); T is seconds
// since the queue started, so simulated runs produce byte-identical
// timelines.
type TimelineEvent struct {
	Seq     int64   `json:"seq"`
	T       float64 `json:"t"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	Reason  string  `json:"reason"`
	Attempt int     `json:"attempt"`
	Worker  string  `json:"worker,omitempty"`
}

// String renders the event in the fixed format used by DumpTimelines.
func (e TimelineEvent) String() string {
	w := e.Worker
	if w == "" {
		w = "-"
	}
	return fmt.Sprintf("seq=%d t=%.3f %s>%s reason=%s attempt=%d worker=%s",
		e.Seq, e.T, e.From, e.To, e.Reason, e.Attempt, w)
}

// recordTimeline appends one event to the job's bounded ring. Callers
// hold q.mu.
func (q *Queue) recordTimeline(j *Job, from, to, reason string) {
	q.eventSeq++
	ev := TimelineEvent{
		Seq:     q.eventSeq,
		T:       q.now().Sub(q.start).Seconds(),
		From:    from,
		To:      to,
		Reason:  reason,
		Attempt: j.Attempt,
		Worker:  j.Worker,
	}
	if len(j.Timeline) >= timelineCap {
		copy(j.Timeline, j.Timeline[1:])
		j.Timeline[len(j.Timeline)-1] = ev
		j.TimelineDropped++
	} else {
		j.Timeline = append(j.Timeline, ev)
	}
	q.mTimelineEvents.Inc()
}

// Timeline returns a copy of one job's event ring plus the number of
// older events the ring dropped.
func (q *Queue) Timeline(id int) ([]TimelineEvent, int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.get(id)
	if err != nil {
		return nil, 0, err
	}
	return append([]TimelineEvent(nil), j.Timeline...), j.TimelineDropped, nil
}

// DumpTimelines renders every job's timeline in job order as fixed-
// format lines. The output is a pure function of the schedule: the
// determinism tests pin it byte-for-byte across repeated sim runs.
func (q *Queue) DumpTimelines() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	var b strings.Builder
	for _, j := range q.jobs {
		for _, e := range j.Timeline {
			fmt.Fprintf(&b, "job=%d %s\n", j.ID, e)
		}
		if j.TimelineDropped > 0 {
			fmt.Fprintf(&b, "job=%d dropped=%d\n", j.ID, j.TimelineDropped)
		}
	}
	return b.String()
}
