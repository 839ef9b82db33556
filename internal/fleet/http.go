package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"vbench/internal/telemetry"
)

// Wire types of the master's JSON API (all under /api/v1/). The
// protocol is pull-based: workers ask for work, the master never
// dials out — the shape that survives NATs, worker churn, and
// restarts at large job counts.

// SubmitRequest enqueues a batch of jobs.
type SubmitRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// SubmitResponse returns the assigned IDs, in request order.
type SubmitResponse struct {
	IDs []int `json:"ids"`
}

// LeaseRequest asks for one job on behalf of a worker.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse carries the leased job, or a nil Job when nothing is
// ready. LeaseTTLMS tells the worker how often it must heartbeat.
type LeaseResponse struct {
	Job        *Job  `json:"job,omitempty"`
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

// AckRequest reports on a leased attempt: heartbeat, completion, or
// failure (with its transient/terminal classification). Push, when
// present, piggybacks the worker's cumulative metric snapshot — the
// master absorbs the delta since the worker's previous push, so
// worker encode histograms appear in master-side snapshots without a
// scrape path.
type AckRequest struct {
	Worker   string            `json:"worker"`
	JobID    int               `json:"job_id"`
	Attempt  int               `json:"attempt"`
	Result   *Result           `json:"result,omitempty"`
	Terminal bool              `json:"terminal,omitempty"`
	Error    string            `json:"error,omitempty"`
	Push     *telemetry.Export `json:"push,omitempty"`
	// PushSeq orders pushes from one worker; the master drops
	// out-of-order arrivals (cumulative snapshots must be absorbed in
	// the order they were taken).
	PushSeq int64 `json:"push_seq,omitempty"`
}

// AckResponse reports whether the ack was applied (completions) or
// the lease is still current (heartbeats).
type AckResponse struct {
	Applied bool `json:"applied,omitempty"`
	OK      bool `json:"ok"`
}

// JobsResponse lists every job.
type JobsResponse struct {
	Jobs []Job `json:"jobs"`
}

// TimelineResponse carries one job's event ring.
type TimelineResponse struct {
	Job     int             `json:"job"`
	Dropped int             `json:"dropped,omitempty"`
	Events  []TimelineEvent `json:"events"`
}

// Server exposes a Queue over HTTP.
type Server struct {
	q *Queue

	// Tracing state; leaseSpans is only touched by observeTransition,
	// which the queue serializes under its lock.
	tracer     *telemetry.Tracer
	leaseSpans map[int]*telemetry.Span

	// Metric-push state: the last cumulative export per worker (the
	// baseline for delta absorption) and its sequence number.
	pushMu   sync.Mutex
	lastPush map[string]telemetry.Export
	lastSeq  map[string]int64

	mTraceAcks, mMetricPushes *telemetry.Counter
}

// NewServer wraps q.
func NewServer(q *Queue) *Server {
	return &Server{
		q:             q,
		leaseSpans:    map[int]*telemetry.Span{},
		lastPush:      map[string]telemetry.Export{},
		lastSeq:       map[string]int64{},
		mTraceAcks:    q.Metrics().Counter("fleet.trace_acks"),
		mMetricPushes: q.Metrics().Counter("fleet.metric_pushes"),
	}
}

// Handler returns the API routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/submit", s.handleSubmit)
	mux.HandleFunc("POST /api/v1/lease", s.handleLease)
	mux.HandleFunc("POST /api/v1/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /api/v1/complete", s.handleComplete)
	mux.HandleFunc("POST /api/v1/fail", s.handleFail)
	mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	mux.HandleFunc("GET /api/v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /api/v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/v1/timeline", s.handleTimeline)
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /metrics", s.handleMetricsText)
	return mux
}

// Sweep expires lapsed leases every interval until ctx is done; the
// master runs it so leases of crashed workers requeue even while no
// surviving worker is polling.
func (s *Server) Sweep(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.q.ExpireLeases()
		}
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decode(w, r, &req) {
		return
	}
	ids := make([]int, 0, len(req.Jobs))
	for _, spec := range req.Jobs {
		id, err := s.q.Submit(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		ids = append(ids, id)
	}
	writeJSON(w, SubmitResponse{IDs: ids})
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("fleet: lease needs a worker id"))
		return
	}
	resp := LeaseResponse{LeaseTTLMS: s.q.LeaseTTL().Milliseconds()}
	if j, ok := s.q.Lease(req.Worker); ok {
		resp.Job = &j
		// Trace context rides on response headers: the worker parents
		// its execution span under the master's lease span and echoes
		// both IDs on every heartbeat and ack.
		w.Header().Set(HeaderTraceID, JobTraceID(j.ID))
		w.Header().Set(HeaderSpanID, LeaseSpanID(j.ID, j.Attempt))
	}
	writeJSON(w, resp)
}

// observeAck records the observability side channels every ack-shaped
// request can carry: an echoed trace context and a piggybacked metric
// push. Pushes are cumulative and sequenced by the sender; one that
// arrives out of order (a worker runs concurrent jobs, so pushes can
// race) is dropped rather than absorbed — the next in-order push
// carries its events anyway.
func (s *Server) observeAck(r *http.Request, req *AckRequest) {
	if r.Header.Get(HeaderSpanID) != "" {
		s.mTraceAcks.Inc()
	}
	if req.Push == nil || req.Worker == "" {
		return
	}
	s.pushMu.Lock()
	defer s.pushMu.Unlock()
	if last, ok := s.lastSeq[req.Worker]; ok && req.PushSeq <= last {
		return
	}
	prev := s.lastPush[req.Worker]
	s.lastPush[req.Worker] = *req.Push
	s.lastSeq[req.Worker] = req.PushSeq
	s.q.Metrics().Absorb(*req.Push, prev)
	s.mMetricPushes.Inc()
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req AckRequest
	if !decode(w, r, &req) {
		return
	}
	s.observeAck(r, &req)
	// A failed heartbeat is a protocol answer ("your lease lapsed"),
	// not a transport error: the worker must abandon the attempt.
	err := s.q.Heartbeat(req.JobID, req.Attempt, req.Worker)
	writeJSON(w, AckResponse{OK: err == nil})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req AckRequest
	if !decode(w, r, &req) {
		return
	}
	s.observeAck(r, &req)
	var res Result
	if req.Result != nil {
		res = *req.Result
	}
	applied, err := s.q.Complete(req.JobID, req.Attempt, req.Worker, res)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, AckResponse{Applied: applied, OK: true})
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var req AckRequest
	if !decode(w, r, &req) {
		return
	}
	s.observeAck(r, &req)
	if err := s.q.Fail(req.JobID, req.Attempt, req.Worker, req.Terminal, req.Error); err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, AckResponse{OK: true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.q.Stats())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, JobsResponse{Jobs: s.q.Jobs()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// Serialization errors at this point mean the client went away;
	// there is nothing useful left to do with them.
	_ = s.q.Metrics().WriteJSON(w)
}

func (s *Server) handleMetricsText(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.q.Metrics().WriteText(w)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.q.Status()
	// Per-worker wavefront utilization comes from the last metric push
	// (server-side state the queue never sees): the mean of the
	// worker.wave_occupancy histogram.
	s.pushMu.Lock()
	for i := range st.Workers {
		if he, ok := s.lastPush[st.Workers[i].ID].Histograms[metricWaveOccupancy]; ok {
			var n int64
			for _, c := range he.Counts {
				n += c
			}
			if n > 0 {
				st.Workers[i].WaveOccupancy = he.Sum / float64(n)
			}
		}
	}
	s.pushMu.Unlock()
	writeJSON(w, st)
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("fleet: timeline needs ?id=<job>: %w", err))
		return
	}
	events, dropped, err := s.q.Timeline(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, TimelineResponse{Job: id, Dropped: dropped, Events: events})
}

// maxRequestBody bounds every request body the master reads. The
// largest legitimate bodies — a submission batch, an ack carrying a
// metric push — are far smaller.
const maxRequestBody = 8 << 20

// decode parses the JSON request body, answering 413 past
// maxRequestBody and 400 on any other failure.
func decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("fleet: request body over %d bytes", tooLarge.Limit))
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("fleet: bad request body: %w", err))
	}
	return false
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	// Encoding errors mean the client disconnected mid-response; the
	// server has no channel left to report them on.
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
