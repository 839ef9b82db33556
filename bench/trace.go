package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval: a call from the benchmark into a
// layer (named "<layer>.<call>"), or a structural interval of the
// benchmark's own ("bench.<what>"). Spans of one cycle share its id.
type span struct {
	rec        *recorder
	name       string
	id, parent int
	cycle      int
	lane       int  // Chrome trace tid; concurrent siblings get distinct lanes
	probe      bool // under a layer probe, not under a workload cycle
	start, end time.Duration
}

// recorder keeps spans in memory until the run ends. It is the
// benchmark's own (not internal/telemetry): it measures the layers
// from outside, around the calls into their exported functions. A nil
// recorder, or one switched off, hands out nil spans, and every span
// method is a no-op on nil — the untraced path costs one branch.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	spans []*span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// enable switches recording on or off between cycles.
func (r *recorder) enable(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// root opens a top-level span: a workload cycle or a probe.
func (r *recorder) root(name string, cycle int, probe bool) *span {
	if r == nil {
		return nil
	}
	return r.open(&span{rec: r, name: name, parent: -1, cycle: cycle, probe: probe})
}

func (r *recorder) open(s *span) *span {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return nil
	}
	s.id = len(r.spans)
	s.start = now
	s.end = -1
	r.spans = append(r.spans, s)
	return s
}

// child opens a span caused by s, on the same lane.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.childLane(name, s.lane)
}

// childLane opens a child on its own lane, for siblings that overlap
// in time (pool cells, fleet workers).
func (s *span) childLane(name string, lane int) *span {
	if s == nil {
		return nil
	}
	return s.rec.open(&span{rec: s.rec, name: name, parent: s.id, cycle: s.cycle, lane: lane, probe: s.probe})
}

// finish closes the span.
func (s *span) finish() {
	if s == nil {
		return
	}
	now := time.Since(s.rec.t0)
	s.rec.mu.Lock()
	s.end = now
	s.rec.mu.Unlock()
}

// timed runs fn inside a child span of parent and returns fn's wall
// time; with tracing off it is a bare stopwatch.
func timed(parent *span, name string, fn func()) time.Duration {
	sp := parent.child(name)
	t := time.Now()
	fn()
	d := time.Since(t)
	sp.finish()
	return d
}

// closed returns the finished spans in id order.
func (r *recorder) closed() []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end >= s.start {
			out = append(out, s)
		}
	}
	return out
}

// interval is a half-open time range used for union arithmetic.
type interval struct{ lo, hi time.Duration }

// unionLen returns the total length covered by the intervals.
func unionLen(iv []interval) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total, hi time.Duration
	hi = -1 << 62
	for _, v := range iv {
		if v.lo > hi {
			total += v.hi - v.lo
			hi = v.hi
		} else if v.hi > hi {
			total += v.hi - hi
			hi = v.hi
		}
	}
	return total
}

// traceSummary is what the per-layer metrics need from the spans
// beyond their durations.
type traceSummary struct {
	// inWindow counts the workload's spans inside cycles of the window.
	inWindow map[string]int
	// coverage is, per traced cycle, the share of the cycle span that
	// spans of layer calls (names not starting "bench.") cover.
	coverage []float64
	// malformed counts children that stick out of their parent.
	malformed int
}

// summarize files every span's duration (ms) in obs under the span's
// name, and its self time — duration minus the part its children
// cover — under "self:"+name, as the workload's or the probe's.
func summarize(spans []*span, obs *observations) *traceSummary {
	ts := &traceSummary{inWindow: map[string]int{}}
	byID := map[int]*span{}
	kids := map[int][]interval{}
	layer := map[int][]interval{} // by root span id
	rootOf := map[int]int{}
	for _, s := range spans {
		byID[s.id] = s
		root := s.id
		if p, ok := byID[s.parent]; ok {
			root = rootOf[p.id]
			kids[p.id] = append(kids[p.id], interval{s.start, s.end})
			if s.start < p.start || s.end > p.end {
				ts.malformed++
			}
		}
		rootOf[s.id] = root
		if !strings.HasPrefix(s.name, "bench.") {
			layer[root] = append(layer[root], interval{s.start, s.end})
		}
	}
	for _, s := range spans {
		d := s.end - s.start
		obs.put(s.probe, s.name, ms(d))
		obs.put(s.probe, "self:"+s.name, ms(d-unionLen(kids[s.id])))
		if s.probe || s.cycle < 0 {
			continue
		}
		ts.inWindow[s.name]++
		if s.parent < 0 && d > 0 {
			ts.coverage = append(ts.coverage, float64(unionLen(layer[s.id]))/float64(d))
		}
	}
	return ts
}

// writeChromeTrace writes the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): complete events, microsecond clock.
func writeChromeTrace(path string, spans []*span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		pid := 1
		if s.probe {
			pid = 2
		}
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: pid, Tid: s.lane,
			Args: map[string]int{"id": s.id, "parent": s.parent, "cycle": s.cycle},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
