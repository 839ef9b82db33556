package fleet

import (
	"hash/fnv"
	"regexp"
	"strings"
	"testing"
	"time"

	"vbench/internal/telemetry"
)

// hashFaultModel injects pseudo-random transient and terminal faults
// as a pure function of (job ID, attempt) — the property that makes
// fault patterns, and therefore Stats, independent of worker count
// and completion order.
func hashFaultModel(j Job) (float64, Outcome, Result) {
	h := fnv.New32a()
	h.Write([]byte{byte(j.ID), byte(j.ID >> 8), byte(j.Attempt)})
	v := h.Sum32()
	secs := 0.5 + float64(v%1000)/500.0
	switch {
	case v%11 == 0 && j.Attempt == 1:
		return secs, OutcomeTransient, Result{}
	case v%17 == 3:
		return secs, OutcomeTerminal, Result{}
	default:
		return secs, OutcomeDone, Result{Bytes: int64(v), PSNR: 40}
	}
}

func simOptions() Options {
	return Options{
		Metrics:     telemetry.NewRegistry(),
		LeaseTTL:    time.Hour,
		MaxAttempts: 3,
		BackoffBase: time.Second,
	}
}

func runFaultySim(t *testing.T, workers int) *Sim {
	t.Helper()
	s := NewSim(SimConfig{Workers: workers, Queue: simOptions(), Model: hashFaultModel})
	for i := 0; i < 40; i++ {
		s.SubmitAt(time.Duration(i)*100*time.Millisecond, JobSpec{Kind: KindNoop, Tag: "sim"}, nil)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSimGoldenStatsAcrossWorkerCounts(t *testing.T) {
	base := runFaultySim(t, 1).Q.Stats()
	if base.Retries == 0 || base.Failed == 0 {
		t.Errorf("fault model injected nothing useful: %+v", base)
	}
	if base.Done+base.Failed != base.Submitted || base.Pending != 0 || base.Leased != 0 {
		t.Errorf("unresolved jobs at end of run: %+v", base)
	}
	for _, workers := range []int{2, 3, 5} {
		if got := runFaultySim(t, workers).Q.Stats(); got != base {
			t.Errorf("stats with %d workers = %+v, want %+v (1 worker)", workers, got, base)
		}
	}
}

func TestSimGoldenTransitionLog(t *testing.T) {
	// One worker, two jobs; job 2 fails transiently once. Pins the
	// exact byte-level schedule of the discrete-event twin, as every
	// job's transition timeline.
	model := func(j Job) (float64, Outcome, Result) {
		if j.ID == 2 && j.Attempt == 1 {
			return 1, OutcomeTransient, Result{}
		}
		if j.ID == 1 {
			return 2, OutcomeDone, Result{}
		}
		return 1, OutcomeDone, Result{}
	}
	s := NewSim(SimConfig{Workers: 1, Queue: simOptions(), Model: model})
	s.SubmitAt(0, JobSpec{Kind: KindNoop}, nil)
	s.SubmitAt(0, JobSpec{Kind: KindNoop}, nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"job=1 seq=1 t=0.000 none>pending reason=submit attempt=0 worker=-",
		"job=1 seq=2 t=0.000 pending>leased reason=lease attempt=1 worker=sim-w0",
		"job=1 seq=4 t=2.000 leased>done reason=complete attempt=1 worker=sim-w0",
		"job=2 seq=3 t=0.000 none>pending reason=submit attempt=0 worker=-",
		"job=2 seq=5 t=2.000 pending>leased reason=lease attempt=1 worker=sim-w0",
		"job=2 seq=6 t=3.000 leased>pending reason=transient_error attempt=1 worker=sim-w0",
		"job=2 seq=7 t=4.000 pending>leased reason=lease attempt=2 worker=sim-w0",
		"job=2 seq=8 t=5.000 leased>done reason=complete attempt=2 worker=sim-w0",
		"",
	}, "\n")
	if got := s.Timelines(); got != want {
		t.Errorf("golden timelines mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestSimCrashedWorkerLeaseExpiryRecovery(t *testing.T) {
	// Worker sim-w0 dies (SIGKILL analogue) holding job 1's lease: no
	// failure report ever arrives. The lease times out, the job
	// requeues, and the surviving worker finishes it.
	opt := simOptions()
	opt.LeaseTTL = 5 * time.Second
	model := func(j Job) (float64, Outcome, Result) {
		if j.ID == 1 && j.Attempt == 1 {
			return 0, OutcomeCrash, Result{}
		}
		return 1, OutcomeDone, Result{}
	}
	s := NewSim(SimConfig{Workers: 2, Queue: opt, Model: model})
	for i := 0; i < 4; i++ {
		s.SubmitAt(0, JobSpec{Kind: KindNoop}, nil)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.Q.Stats()
	if st.Done != 4 || st.LeaseExpiries != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	j, err := s.Q.Job(1)
	if err != nil {
		t.Fatal(err)
	}
	if j.Completions != 1 || j.Attempt != 2 || j.Result.Worker != "sim-w1" {
		t.Errorf("recovered job = %+v result=%+v", j, j.Result)
	}
	expiry := regexp.MustCompile(`(?m)^job=1 seq=\d+ t=\S+ leased>pending reason=lease_expired attempt=1 worker=sim-w0$`)
	if tl := s.Timelines(); !expiry.MatchString(tl) {
		t.Errorf("timelines missing job 1's lease expiry:\n%s", tl)
	}
}

func TestSimTerminalFailureNoRetry(t *testing.T) {
	model := func(j Job) (float64, Outcome, Result) {
		if j.ID == 1 {
			return 1, OutcomeTerminal, Result{}
		}
		return 1, OutcomeDone, Result{}
	}
	s := NewSim(SimConfig{Workers: 1, Queue: simOptions(), Model: model})
	s.SubmitAt(0, JobSpec{Kind: KindNoop}, nil)
	s.SubmitAt(0, JobSpec{Kind: KindNoop}, nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.Q.Stats()
	if st.Failed != 1 || st.Done != 1 || st.Retries != 0 {
		t.Errorf("stats = %+v", st)
	}
	j, _ := s.Q.Job(1)
	if j.Attempt != 1 {
		t.Errorf("terminal job was re-leased: %+v", j)
	}
}

func TestSimChainedSubmission(t *testing.T) {
	// Dependent passes chain through completion callbacks: each "upload"
	// submits its "vod" job on completion, the shape of an upload →
	// VOD → popular transcode pipeline.
	var chained []int
	s := NewSim(SimConfig{Workers: 2, Queue: simOptions()})
	for i := 0; i < 3; i++ {
		s.SubmitAt(time.Duration(i)*time.Second, JobSpec{Kind: KindNoop, Tag: "upload"},
			func(s *Sim, j Job) {
				s.SubmitNow(JobSpec{Kind: KindNoop, Tag: "vod"}, func(_ *Sim, vj Job) {
					chained = append(chained, vj.ID)
				})
			})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.Q.Stats()
	if st.Submitted != 6 || st.Done != 6 {
		t.Errorf("stats = %+v", st)
	}
	if len(chained) != 3 {
		t.Errorf("vod completions = %v, want 3", chained)
	}
}

func TestSimUtilizationAccounting(t *testing.T) {
	// One worker, back-to-back unit jobs: busy time equals makespan
	// minus nothing, waits accumulate as jobs queue behind each other.
	model := func(j Job) (float64, Outcome, Result) { return 1, OutcomeDone, Result{} }
	opt := simOptions()
	s := NewSim(SimConfig{Workers: 1, Queue: opt, Model: model})
	for i := 0; i < 3; i++ {
		s.SubmitAt(0, JobSpec{Kind: KindNoop}, nil)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.BusySeconds(); got != 3 {
		t.Errorf("busy = %v, want 3", got)
	}
	// Jobs 2 and 3 wait 1s and 2s behind job 1.
	if got := s.TotalWaitSeconds(); got != 3 {
		t.Errorf("total wait = %v, want 3", got)
	}
	if got := s.MaxWaitSeconds(); got != 2 {
		t.Errorf("max wait = %v, want 2", got)
	}
}
