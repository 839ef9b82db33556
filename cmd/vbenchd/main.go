// Command vbenchd is the networked master/worker transcoding service
// built on the internal/fleet scheduler: a master owns the durable job
// queue (validated state machine, heartbeat leases, bounded retries)
// and pull-based workers run real vbench codec encodes over HTTP.
//
// Usage:
//
//	vbenchd master -addr 127.0.0.1:7933 -state /tmp/fleet.json
//	vbenchd worker -master http://127.0.0.1:7933 -id w1
//	vbenchd submit -master http://127.0.0.1:7933 -clip girl -encoder x264-medium -scale 16 -duration 0.4
//	vbenchd submit -master http://127.0.0.1:7933 -suite x264-veryfast,x265-medium
//	vbenchd wait   -master http://127.0.0.1:7933 -expect 50 -timeout 120s
//
// The master answers SIGTERM/SIGINT with a graceful drain: the HTTP
// server stops accepting work, and with -state the queue is
// snapshotted so a restarted master resumes exactly where it stopped
// (live workers keep their leases across the restart). Workers answer
// SIGTERM by finishing and acking their in-flight jobs before exiting.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vbench/internal/cas"
	"vbench/internal/corpus"
	"vbench/internal/fleet"
	"vbench/internal/harness"
	"vbench/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "master":
		err = runMaster(os.Args[2:])
	case "worker":
		err = runWorker(os.Args[2:])
	case "submit":
		err = runSubmit(os.Args[2:])
	case "wait":
		err = runWait(os.Args[2:])
	case "status":
		err = runStatus(os.Args[2:])
	case "trace":
		err = runTrace(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "vbenchd: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbenchd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, strings.TrimSpace(`
usage: vbenchd <subcommand> [flags]

  master   serve the job queue over HTTP
  worker   pull jobs from a master and run real encodes
  submit   enqueue jobs on a master
  wait     block until a master's queue drains, then verify it
  status   render a master's live ops snapshot (or one job's timeline)
  trace    stitch master + worker Chrome-trace files into one timeline

Run "vbenchd <subcommand> -h" for the subcommand's flags.
`))
}

// profileFlag binds -cpuprofile on fs. Only the CPU profile of
// telemetry.Options is taken: vbenchd's own -trace writes fleet spans,
// not the Chrome trace the shared -trace flag means elsewhere.
func profileFlag(fs *flag.FlagSet) *telemetry.Options {
	o := &telemetry.Options{}
	fs.StringVar(&o.CPUProfilePath, "cpuprofile", "", "write a CPU profile of the process from start to shutdown to this file (read with go tool pprof)")
	return o
}

func runMaster(args []string) (err error) {
	fs := flag.NewFlagSet("vbenchd master", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7933", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "heartbeat deadline of a lease")
	maxAttempts := fs.Int("max-attempts", 3, "lease attempts per job before it fails terminally")
	backoff := fs.Duration("backoff", 250*time.Millisecond, "base requeue backoff (doubles per attempt)")
	backoffMax := fs.Duration("backoff-max", 30*time.Second, "requeue backoff cap")
	sweep := fs.Duration("sweep", time.Second, "lease-expiry sweep interval")
	state := fs.String("state", "", "snapshot file: restored at boot, written on shutdown")
	logTransitions := fs.Bool("log-transitions", false, "dump every job's state-transition timeline on shutdown")
	tracePath := fs.String("trace", "", "write a Chrome trace of master-side lease spans here on shutdown")
	debugAddr := fs.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060)")
	cacheDir := fs.String("cache-dir", "", "content-addressed transcode cache directory: submissions with a stored result complete instantly, duplicate in-flight submissions dedup onto one job")
	prof := profileFlag(fs)
	fs.Parse(args)
	flushProfile, err := prof.Activate()
	if err != nil {
		return err
	}
	defer func() {
		if ferr := flushProfile(); err == nil {
			err = ferr
		}
	}()

	opt := fleet.Options{
		LeaseTTL:    *leaseTTL,
		MaxAttempts: *maxAttempts,
		BackoffBase: *backoff,
		BackoffMax:  *backoffMax,
		Metrics:     telemetry.Default,
	}
	if *cacheDir != "" {
		store, err := cas.Open(*cacheDir, telemetry.Default)
		if err != nil {
			return fmt.Errorf("opening cache %s: %w", *cacheDir, err)
		}
		opt.Cache = store
		fmt.Fprintf(os.Stderr, "vbenchd master: transcode cache at %s (%d entries)\n",
			*cacheDir, store.Stats().DiskEntries)
	}
	q, err := bootQueue(*state, opt)
	if err != nil {
		return err
	}

	srv := fleet.NewServer(q)
	var tracer *telemetry.Tracer
	if *tracePath != "" {
		tracer = telemetry.NewProcessTracer("vbenchd-master")
		srv.EnableTracing(tracer)
	}
	if *debugAddr != "" {
		stopDebug, err := telemetry.StartDebugServer(*debugAddr)
		if err != nil {
			return err
		}
		defer func() { _ = stopDebug() }() // best-effort: the process is exiting anyway
		fmt.Fprintf(os.Stderr, "vbenchd master: debug endpoint on http://%s/debug/pprof\n", *debugAddr)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "vbenchd master: listening on %s (lease-ttl %v, max-attempts %d)\n",
		ln.Addr(), *leaseTTL, *maxAttempts)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	go srv.Sweep(ctx, *sweep)

	// Header and idle timeouts stop a slow or silent client from
	// pinning a connection; request bodies are bounded by the handlers.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "vbenchd master: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if *state != "" {
		if err := saveSnapshot(q, *state); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "vbenchd master: state saved to %s\n", *state)
	}
	if *logTransitions {
		io.WriteString(os.Stderr, q.DumpTimelines())
	}
	if tracer != nil {
		if err := writeTrace(tracer, *tracePath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "vbenchd master: trace written to %s (%d spans)\n", *tracePath, tracer.Len())
	}
	st := q.Stats()
	fmt.Fprintf(os.Stderr, "vbenchd master: exiting (%d submitted, %d done, %d failed)\n",
		st.Submitted, st.Done, st.Failed)
	return nil
}

// bootQueue restores the snapshot at path when one exists, otherwise
// starts empty.
func bootQueue(path string, opt fleet.Options) (*fleet.Queue, error) {
	if path == "" {
		return fleet.NewQueue(opt), nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return fleet.NewQueue(opt), nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	q, err := fleet.Restore(f, opt)
	if err != nil {
		return nil, fmt.Errorf("restoring %s: %w", path, err)
	}
	st := q.Stats()
	fmt.Fprintf(os.Stderr, "vbenchd master: restored %s (%d jobs: %d pending, %d leased, %d done, %d failed)\n",
		path, st.Submitted, st.Pending, st.Leased, st.Done, st.Failed)
	return q, nil
}

// saveSnapshot writes the queue state atomically (write-then-rename).
func saveSnapshot(q *fleet.Queue, path string) error {
	var buf bytes.Buffer
	if err := q.Snapshot(&buf); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func runWorker(args []string) (err error) {
	fs := flag.NewFlagSet("vbenchd worker", flag.ExitOnError)
	master := fs.String("master", "http://127.0.0.1:7933", "master base URL")
	id := fs.String("id", "", "worker id (default host-pid)")
	concurrency := fs.Int("concurrency", 1, "jobs run at once (encodes still share the process CPU gate)")
	poll := fs.Duration("poll", 200*time.Millisecond, "idle re-poll interval")
	heartbeat := fs.Duration("heartbeat", 0, "lease renewal interval (0 = a third of the master's lease TTL)")
	tracePath := fs.String("trace", "", "write a Chrome trace of execution spans here on drain")
	noPush := fs.Bool("no-push", false, "do not piggyback worker metric snapshots on heartbeats")
	rowsParallel := fs.Int("rows-parallel", 0, "wavefront rows per slice for encode jobs that don't set it: 0 = share the CPU gate, 1 = serial rows, 2..64 = dedicated row lanes")
	cacheDir := fs.String("cache-dir", "", "shared content-addressed transcode cache directory (serve cached encodes, store fresh ones)")
	prof := profileFlag(fs)
	fs.Parse(args)
	flushProfile, err := prof.Activate()
	if err != nil {
		return err
	}
	defer func() {
		if ferr := flushProfile(); err == nil {
			err = ferr
		}
	}()

	if *id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var tracer *telemetry.Tracer
	if *tracePath != "" {
		tracer = telemetry.NewProcessTracer("worker-" + *id)
		// Stage clocks feed the worker.stage.* push mirror; they only
		// cost time.Now calls while an encode runs.
		telemetry.EnableStages(true)
	}
	// All progress lines flow through one LineWriter bound to the
	// worker's identity, so colocated workers (and the heartbeat
	// goroutines of one worker) never interleave mid-line and every
	// line carries "[<id> +elapsed]".
	lw := telemetry.NewLineWriter(os.Stderr)
	var store *cas.Store
	if *cacheDir != "" {
		s, err := cas.Open(*cacheDir, telemetry.Default)
		if err != nil {
			return fmt.Errorf("opening cache %s: %w", *cacheDir, err)
		}
		store = s
	}
	w, err := fleet.NewWorker(fleet.WorkerOptions{
		Master:       *master,
		ID:           *id,
		Concurrency:  *concurrency,
		Poll:         *poll,
		Heartbeat:    *heartbeat,
		Log:          lw.Labeled(*id),
		Tracer:       tracer,
		DisablePush:  *noPush,
		RowsParallel: *rowsParallel,
		Cache:        store,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	fmt.Fprintf(os.Stderr, "vbenchd worker %s: pulling from %s\n", *id, *master)
	err = w.Run(ctx)
	if err == nil && tracer != nil {
		if terr := writeTrace(tracer, *tracePath); terr != nil {
			err = terr
		} else {
			fmt.Fprintf(os.Stderr, "vbenchd worker %s: trace written to %s (%d spans)\n", *id, *tracePath, tracer.Len())
		}
	}
	fmt.Fprintf(os.Stderr, "vbenchd worker %s: drained\n", *id)
	return err
}

// writeTrace dumps a tracer's spans as Chrome trace-event JSON.
func writeTrace(t *telemetry.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		_ = f.Close() // the write error takes precedence
		return err
	}
	return f.Close()
}

func runSubmit(args []string) error {
	fs := flag.NewFlagSet("vbenchd submit", flag.ExitOnError)
	master := fs.String("master", "http://127.0.0.1:7933", "master base URL")
	kind := fs.String("kind", fleet.KindEncode, "job kind: encode or noop")
	clip := fs.String("clip", "girl", "corpus clip name (encode jobs)")
	encoder := fs.String("encoder", "x264-medium", `encoder as "family-preset" (encode jobs)`)
	scale := fs.Int("scale", 16, "linear resolution divisor")
	duration := fs.Float64("duration", 0.4, "clip duration in seconds")
	qp := fs.Int("qp", 28, "quantizer (cqp/crf rate control)")
	rc := fs.String("rc", "", "rate control: cqp (default), abr, 2pass")
	bitrate := fs.Float64("bitrate", 0, "target bitrate in bits/s (abr and 2pass)")
	n := fs.Int("n", 1, "copies of the job to submit")
	sleepMS := fs.Int("sleep-ms", 0, "noop job sleep")
	failFirst := fs.Int("fail-first", 0, "inject transient failures on the first N attempts")
	suite := fs.String("suite", "", "submit the full corpus grid against this comma-separated encoder list instead")
	tag := fs.String("tag", "", "opaque label attached to the jobs")
	fs.Parse(args)

	var specs []fleet.JobSpec
	if *suite != "" {
		encs := strings.Split(*suite, ",")
		specs = harness.FleetJobSpecs(corpus.VBenchClips(), encs, *scale, *duration, *qp)
	} else {
		spec := fleet.JobSpec{
			Kind: *kind, Tag: *tag,
			Clip: *clip, Scale: *scale, Duration: *duration,
			Encoder: *encoder, RC: *rc, QP: *qp, BitrateBPS: *bitrate,
			SleepMS: *sleepMS, FailFirst: *failFirst,
		}
		if *kind == fleet.KindNoop {
			spec.Clip, spec.Encoder = "", ""
			spec.Scale, spec.Duration = 0, 0
		}
		for i := 0; i < *n; i++ {
			specs = append(specs, spec)
		}
	}

	var resp fleet.SubmitResponse
	if err := postJSON(*master+"/api/v1/submit", fleet.SubmitRequest{Jobs: specs}, &resp); err != nil {
		return err
	}
	fmt.Printf("submitted %d jobs (ids %d..%d)\n", len(resp.IDs), resp.IDs[0], resp.IDs[len(resp.IDs)-1])
	return nil
}

func runWait(args []string) error {
	fs := flag.NewFlagSet("vbenchd wait", flag.ExitOnError)
	master := fs.String("master", "http://127.0.0.1:7933", "master base URL")
	timeout := fs.Duration("timeout", 2*time.Minute, "give up after this long")
	poll := fs.Duration("poll", 200*time.Millisecond, "stats poll interval")
	expect := fs.Int("expect", -1, "require exactly this many done jobs (-1 = any)")
	fs.Parse(args)

	deadline := time.Now().Add(*timeout)
	var st fleet.Stats
	for {
		if err := getJSON(*master+"/api/v1/stats", &st); err != nil {
			return err
		}
		if st.Submitted > 0 && st.Pending == 0 && st.Leased == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v: %d pending, %d leased, %d done, %d failed",
				*timeout, st.Pending, st.Leased, st.Done, st.Failed)
		}
		time.Sleep(*poll)
	}

	// The queue is drained; verify the exactly-once invariant on every
	// job record.
	var jobs fleet.JobsResponse
	if err := getJSON(*master+"/api/v1/jobs", &jobs); err != nil {
		return err
	}
	bad := 0
	for _, j := range jobs.Jobs {
		switch {
		case j.State == fleet.Done && j.Completions == 1:
		case j.State == fleet.Failed:
			fmt.Fprintf(os.Stderr, "vbenchd wait: job %d failed after %d attempts: %s\n", j.ID, j.Attempt, j.LastErr)
			bad++
		default:
			fmt.Fprintf(os.Stderr, "vbenchd wait: job %d in state %v with %d completions\n", j.ID, j.State, j.Completions)
			bad++
		}
	}
	fmt.Printf("drained: %d done, %d failed (of %d); %d lease expiries, %d retries, %d duplicate acks, %d stale acks\n",
		st.Done, st.Failed, st.Submitted, st.LeaseExpiries, st.Retries, st.DuplicateAcks, st.StaleAcks)
	if bad > 0 {
		return fmt.Errorf("%d jobs violated done-exactly-once", bad)
	}
	if *expect >= 0 && st.Done != *expect {
		return fmt.Errorf("done = %d, want %d", st.Done, *expect)
	}
	return nil
}

func runStatus(args []string) error {
	fs := flag.NewFlagSet("vbenchd status", flag.ExitOnError)
	master := fs.String("master", "http://127.0.0.1:7933", "master base URL")
	asJSON := fs.Bool("json", false, "print the raw /status JSON instead of rendering it")
	job := fs.Int("job", 0, "print this job's event timeline instead of the fleet status")
	fs.Parse(args)

	if *job > 0 {
		var tl fleet.TimelineResponse
		if err := getJSON(fmt.Sprintf("%s/api/v1/timeline?id=%d", *master, *job), &tl); err != nil {
			return err
		}
		if tl.Dropped > 0 {
			fmt.Printf("job %d: %d older events dropped by the ring\n", tl.Job, tl.Dropped)
		}
		for _, e := range tl.Events {
			fmt.Println(e.String())
		}
		return nil
	}

	if *asJSON {
		r, err := http.Get(*master + "/status")
		if err != nil {
			return err
		}
		defer r.Body.Close()
		_, err = io.Copy(os.Stdout, r.Body)
		return err
	}

	var st fleet.Status
	if err := getJSON(*master+"/status", &st); err != nil {
		return err
	}
	fmt.Printf("master up %.1fs: %d submitted, %d pending, %d leased, %d done, %d failed\n",
		st.UptimeSeconds, st.Stats.Submitted, st.Stats.Pending, st.Stats.Leased, st.Stats.Done, st.Stats.Failed)
	fmt.Printf("activity: %d leases, %d retries, %d lease expiries, %d duplicate acks, %d stale acks, %d timeline events\n",
		st.Stats.Leases, st.Stats.Retries, st.Stats.LeaseExpiries, st.Stats.DuplicateAcks, st.Stats.StaleAcks, st.TimelineEvents)
	fmt.Printf("policy: lease-ttl %.1fs, max-attempts %d, backoff %.3fs..%.1fs\n",
		st.Policy.LeaseTTLSeconds, st.Policy.MaxAttempts, st.Policy.BackoffBaseSeconds, st.Policy.BackoffMaxSeconds)
	fmt.Printf("leases (%d):\n", len(st.Leases))
	for _, l := range st.Leases {
		fmt.Printf("  job %d attempt %d worker %s age %.1fs expires in %.1fs\n",
			l.Job, l.Attempt, l.Worker, l.AgeSeconds, l.ExpiresSeconds)
	}
	fmt.Printf("workers (%d):\n", len(st.Workers))
	for _, w := range st.Workers {
		live := "live"
		if !w.Live {
			live = "silent"
		}
		wave := ""
		if w.WaveOccupancy > 0 {
			wave = fmt.Sprintf(", wave occupancy %.1f", w.WaveOccupancy)
		}
		fmt.Printf("  %s %s (seen %.1fs ago): %d in flight, %d leases, %d heartbeats, %d completions, %d failures%s\n",
			w.ID, live, w.LastSeenSeconds, w.InFlight, w.Leases, w.Heartbeats, w.Completions, w.Failures, wave)
	}
	return nil
}

func runTrace(args []string) error {
	fs := flag.NewFlagSet("vbenchd trace", flag.ExitOnError)
	out := fs.String("o", "", "write the stitched trace here (default stdout)")
	minProcs := fs.Int("min-processes", 0, "fail unless the merge spans at least this many processes")
	minLinks := fs.Int("min-links", 0, "fail unless at least this many cross-process parent links resolved")
	maxOrphans := fs.Int("max-orphans", -1, "fail if more spans than this declared unresolvable parents (-1 = no limit)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("trace: need at least one input trace file")
	}

	inputs := make([]*telemetry.ChromeTrace, 0, fs.NArg())
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		t, err := telemetry.ParseChromeTrace(f)
		_ = f.Close() // read-only; a parse error takes precedence
		if err != nil {
			return fmt.Errorf("trace: %s: %w", path, err)
		}
		inputs = append(inputs, t)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	stats, err := telemetry.MergeChromeTraces(w, inputs)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "vbenchd trace: %d processes, %d spans, %d cross-process links, %d orphans\n",
		stats.Processes, stats.Spans, stats.Links, stats.Orphans)
	if stats.Processes < *minProcs {
		return fmt.Errorf("trace: %d processes, want >= %d", stats.Processes, *minProcs)
	}
	if stats.Links < *minLinks {
		return fmt.Errorf("trace: %d cross-process links, want >= %d", stats.Links, *minLinks)
	}
	if *maxOrphans >= 0 && stats.Orphans > *maxOrphans {
		return fmt.Errorf("trace: %d orphaned spans, want <= %d", stats.Orphans, *maxOrphans)
	}
	return nil
}

func postJSON(url string, req, resp interface{}) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(r.Body, 1024))
		return fmt.Errorf("%s: %s: %s", url, r.Status, bytes.TrimSpace(b))
	}
	if resp == nil {
		return nil
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

func getJSON(url string, resp interface{}) error {
	r, err := http.Get(url)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(r.Body, 1024))
		return fmt.Errorf("%s: %s: %s", url, r.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(r.Body).Decode(resp)
}
