package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"vbench/internal/telemetry"
)

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestStatusEndpoint checks the /status ops snapshot: fixed schema,
// active leases with ages, and per-worker accounting.
func TestStatusEndpoint(t *testing.T) {
	q := NewQueue(Options{
		Metrics:     telemetry.NewRegistry(),
		LeaseTTL:    time.Minute,
		MaxAttempts: 4,
		BackoffBase: 2 * time.Second,
		BackoffMax:  30 * time.Second,
	})
	srv := testMaster(t, q)
	submitNoops(t, srv.URL, 2, 0)
	var leased LeaseResponse
	rawPost(t, srv.URL+"/api/v1/lease", &LeaseRequest{Worker: "wA"}, &leased)
	if leased.Job == nil {
		t.Fatal("lease granted no job")
	}

	code, body := httpGet(t, srv.URL+"/status")
	if code != http.StatusOK {
		t.Fatalf("GET /status = %d", code)
	}

	// Schema: every top-level key present even when empty.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"uptime_seconds", "stats", "policy", "leases", "workers", "timeline_events"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/status missing key %q", key)
		}
	}

	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Policy.MaxAttempts != 4 || st.Policy.LeaseTTLSeconds != 60 {
		t.Errorf("policy = %+v, want max_attempts 4, lease_ttl 60s", st.Policy)
	}
	if len(st.Leases) != 1 {
		t.Fatalf("status shows %d leases, want 1", len(st.Leases))
	}
	l := st.Leases[0]
	if l.Job != leased.Job.ID || l.Worker != "wA" || l.Attempt != 1 {
		t.Errorf("lease = %+v, want job %d attempt 1 on wA", l, leased.Job.ID)
	}
	if l.AgeSeconds < 0 || l.ExpiresSeconds <= 0 || l.ExpiresSeconds > 60 {
		t.Errorf("lease age %.3fs / expires %.3fs out of range", l.AgeSeconds, l.ExpiresSeconds)
	}
	if len(st.Workers) != 1 {
		t.Fatalf("status shows %d workers, want 1", len(st.Workers))
	}
	w := st.Workers[0]
	if w.ID != "wA" || !w.Live || w.InFlight != 1 || w.Leases != 1 {
		t.Errorf("worker = %+v, want live wA with 1 lease in flight", w)
	}
	if st.TimelineEvents != 3 { // 2 submits + 1 lease
		t.Errorf("timeline_events = %d, want 3", st.TimelineEvents)
	}
}

// TestStatusEmptyQueue pins that the zero-state /status serves empty
// arrays, not nulls — the schema contract tooling depends on.
func TestStatusEmptyQueue(t *testing.T) {
	q := NewQueue(Options{Metrics: telemetry.NewRegistry()})
	srv := testMaster(t, q)
	_, body := httpGet(t, srv.URL+"/status")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"leases", "workers"} {
		if string(raw[key]) != "[]" {
			t.Errorf("/status %s = %s, want []", key, raw[key])
		}
	}
}

// TestMetricsTextEndpoint checks the text exposition: stable content
// type, deterministic bytes across reads of unchanged state.
func TestMetricsTextEndpoint(t *testing.T) {
	q := NewQueue(Options{Metrics: telemetry.NewRegistry()})
	srv := testMaster(t, q)
	submitNoops(t, srv.URL, 3, 0)

	code, first := httpGet(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	_, second := httpGet(t, srv.URL+"/metrics")
	if string(first) != string(second) {
		t.Errorf("/metrics not deterministic:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if want := "# counters\n"; len(first) < len(want) || string(first[:len(want)]) != want {
		t.Errorf("/metrics starts with %q, want %q", first[:min(len(first), 20)], want)
	}
}

// TestTimelineEndpoint checks the per-job timeline query and its error
// paths.
func TestTimelineEndpoint(t *testing.T) {
	q := NewQueue(Options{Metrics: telemetry.NewRegistry()})
	srv := testMaster(t, q)
	ids := submitNoops(t, srv.URL, 1, 0)
	var leased LeaseResponse
	rawPost(t, srv.URL+"/api/v1/lease", &LeaseRequest{Worker: "wA"}, &leased)

	code, body := httpGet(t, srv.URL+"/api/v1/timeline?id=1")
	if code != http.StatusOK {
		t.Fatalf("GET timeline = %d: %s", code, body)
	}
	var resp TimelineResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Job != ids[0] || len(resp.Events) != 2 {
		t.Fatalf("timeline = %+v, want job %d with submit+lease events", resp, ids[0])
	}
	if resp.Events[0].To != "pending" || resp.Events[1].To != "leased" {
		t.Errorf("events = %v, want submit then lease", resp.Events)
	}

	if code, _ := httpGet(t, srv.URL+"/api/v1/timeline?id=99"); code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", code)
	}
	if code, _ := httpGet(t, srv.URL+"/api/v1/timeline?id=zap"); code != http.StatusBadRequest {
		t.Errorf("bad id = %d, want 400", code)
	}
}

// TestMetricPushAbsorbed runs a real worker against a loopback master
// and checks that the worker's metrics arrive in the master's registry
// via piggybacked pushes — including the source-memo mirrors, where a
// second encode of the same clip scores one hit.
func TestMetricPushAbsorbed(t *testing.T) {
	masterReg := telemetry.NewRegistry()
	q := NewQueue(Options{
		Metrics:  masterReg,
		LeaseTTL: 2 * time.Second,
	})
	srv := testMaster(t, q)
	const noops, jobs = 3, 5
	submitNoops(t, srv.URL, noops, 2)
	// Two encodes of one source; the worker runs them one at a time, so
	// the second finds the first's synthesized clip. The mirrors carry
	// the process-wide counts, so the expectations start from them.
	sources.EvictAll()
	src := sources.Stats()
	rawPost(t, srv.URL+"/api/v1/submit", &SubmitRequest{Jobs: []JobSpec{
		{Clip: "cat", Encoder: "x264-veryfast", Scale: 32, Duration: 0.1, QP: 30},
		{Clip: "cat", Encoder: "x264-veryfast", Scale: 32, Duration: 0.1, QP: 40},
	}}, nil)

	w, err := NewWorker(WorkerOptions{
		Master:  srv.URL,
		ID:      "w1",
		Poll:    5 * time.Millisecond,
		Metrics: telemetry.NewRegistry(), // see WorkerOptions.Metrics
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run(ctx) }()
	waitDone(t, q, jobs, 10*time.Second)
	cancel()
	<-done

	if n := masterReg.Counter("worker.jobs_executed").Value(); n != jobs {
		t.Errorf("master absorbed worker.jobs_executed = %d, want %d", n, jobs)
	}
	if n := masterReg.Counter("fleet.metric_pushes").Value(); n < 1 {
		t.Error("master absorbed no metric pushes")
	}
	_, text := httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("worker.source_hits %d\n", src.Hits+src.Inflight+1),
		fmt.Sprintf("worker.source_misses %d\n", src.Misses+1),
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("master /metrics lacks %q:\n%s", want, text)
		}
	}
	// The pushes themselves carry the stage-clock mirrors (Absorb only
	// materializes counters with nonzero deltas, and the codec clocks
	// only advance while stage clocks are enabled).
	push, seq := w.buildPush()
	if push == nil || seq < 1 {
		t.Fatalf("buildPush = %v seq %d", push, seq)
	}
	for _, n := range []string{
		"worker.stage.motion_ns", "worker.stage.transform_ns",
		"worker.stage.entropy_ns", "worker.stage.slice_gate_wait_ns",
	} {
		if _, ok := push.Counters[n]; !ok {
			t.Errorf("push missing stage mirror %s: %v", n, push.Counters)
		}
	}
}

// TestStatusWaveOccupancy walks the wavefront utilization surface end
// to end: the codec's occupancy histogram is mirrored into the
// worker's push as worker.wave_occupancy, absorbed by the master, and
// reported on /status as the per-worker mean.
func TestStatusWaveOccupancy(t *testing.T) {
	q := NewQueue(Options{Metrics: telemetry.NewRegistry(), LeaseTTL: time.Minute})
	srv := testMaster(t, q)
	submitNoops(t, srv.URL, 1, 0)
	var leased LeaseResponse
	rawPost(t, srv.URL+"/api/v1/lease", &LeaseRequest{Worker: "wW"}, &leased)
	if leased.Job == nil {
		t.Fatal("lease granted no job")
	}

	// Stand in for a wavefront encode: the codec observes occupancy on
	// the process-wide histogram the worker mirrors at push time.
	telemetry.GetHistogram("codec.wave.occupancy", 1, 2, 4, 8, 16, 32).Observe(3)

	w, err := NewWorker(WorkerOptions{
		Master:  srv.URL,
		ID:      "wW",
		Metrics: telemetry.NewRegistry(), // see WorkerOptions.Metrics
	})
	if err != nil {
		t.Fatal(err)
	}
	push, seq := w.buildPush()
	he, ok := push.Histograms["worker.wave_occupancy"]
	if !ok {
		t.Fatalf("push carries no worker.wave_occupancy: %+v", push.Histograms)
	}
	if he.Sum < 3 {
		t.Fatalf("wave occupancy mirror sum = %v, want >= 3", he.Sum)
	}
	var resp AckResponse
	rawPost(t, srv.URL+"/api/v1/heartbeat", &AckRequest{
		Worker: "wW", JobID: leased.Job.ID, Attempt: leased.Job.Attempt,
		Push: push, PushSeq: seq,
	}, &resp)
	if !resp.OK {
		t.Fatal("heartbeat rejected")
	}

	_, body := httpGet(t, srv.URL+"/status")
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	for _, ws := range st.Workers {
		if ws.ID == "wW" {
			if ws.WaveOccupancy <= 0 {
				t.Errorf("worker wW wave_occupancy = %v, want > 0", ws.WaveOccupancy)
			}
			return
		}
	}
	t.Fatal("/status lists no worker wW")
}
