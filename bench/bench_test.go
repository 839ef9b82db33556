package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func loadContract(t *testing.T) *contract {
	t.Helper()
	spec, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestContractMatchesCode: BENCHMARK.json and the lists in the code
// name the same workloads and metrics, one for one and in order.
func TestContractMatchesCode(t *testing.T) {
	spec := loadContract(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, got []contractMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, d.name, got[i].Better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if runs := 4 + 22*len(spec.Workloads); float64(runs)*float64(spec.RunSeconds+8) > 3420 {
		t.Errorf("%d runs of %d s plus set-up do not fit the driver's 3420 s", runs, spec.RunSeconds)
	}
}

// TestSmoke runs every workload traced and untraced on shrunken
// inputs: the run must report exactly the contract's metrics, verify
// every output, write a trace that parses and nests, and leave no
// goroutine behind.
func TestSmoke(t *testing.T) {
	spec := loadContract(t)
	baseline := runtime.NumGoroutine()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out := t.TempDir()
			res, err := run(runOptions{workload: w.name, seed: 7, seconds: 0.2, trace: traced, outDir: out, setups: 1, warmup: 1, shrink: 8})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			o := res.output(traced)
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %s", w.name, traced, o.Correct, o.Attempted, o.Failed, res.firstErr)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(o.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, contract lists %d", w.name, traced, len(o.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := o.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, contract %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, got.Value)
				}
			}
			if _, err := json.Marshal(o); err != nil {
				t.Errorf("%s traced=%v: result does not encode: %v", w.name, traced, err)
			}
			if !traced {
				continue
			}
			b, err := os.ReadFile(res.tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &trace); err != nil {
				t.Fatalf("%s: trace does not parse: %v", w.name, err)
			}
			if len(trace.TraceEvents) == 0 || res.ts.malformed != 0 || len(res.ts.coverage) == 0 {
				t.Errorf("%s: trace has %d events, %d children outside their parent, %d traced cycles", w.name, len(trace.TraceEvents), res.ts.malformed, len(res.ts.coverage))
			}
		}
	}
	// HTTP connection goroutines wind down just after their sockets
	// close; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines running, %d before the runs:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestSeedOnlyReorders: two seeds give the same quality metrics bit
// for bit, since a seed permutes the op list and changes no op.
func TestSeedOnlyReorders(t *testing.T) {
	var first output
	for i, seed := range []int64{1, 2} {
		res, err := run(runOptions{workload: "encode_serial", seed: seed, seconds: 0.05, outDir: t.TempDir(), setups: 1, warmup: 1, shrink: 8})
		if err != nil {
			t.Fatal(err)
		}
		o := res.output(false)
		if i == 0 {
			first = o
			continue
		}
		for _, name := range []string{"bitrate_bpps", "psnr_db"} {
			if o.Metrics[name] != first.Metrics[name] {
				t.Errorf("%s: seed 1 gives %v, seed %d gives %v", name, first.Metrics[name].Value, seed, o.Metrics[name].Value)
			}
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 3, 7, 5, 9, 2, 8, 4, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

// TestCompareVerdicts drives -compare with synthetic runs: a metric
// within its bound is ok, beyond it worse, and one whose own spread
// exceeds the bound unresolved.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, mains, auxes []float64) string {
		path := filepath.Join(dir, name)
		for i := range mains {
			rec := recordedRun{Workload: "encode_serial", Seed: int64(i), output: output{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"main_p50_ms": {mains[i], "ms"}, "aux_p50_ms": {auxes[i], "ms"}, "psnr_db": {35, "dB"},
			}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", []float64{100, 101, 99, 100}, []float64{10, 20, 30, 40})
	b := write("b.jsonl", []float64{150, 151, 149, 150}, []float64{10, 20, 30, 40})
	var buf bytes.Buffer
	if code := compareFiles(&buf, filepath.Join("..", "BENCHMARK.json"), a, b); code != 1 {
		t.Errorf("compare exit code %d, want 1 (main is worse)\n%s", code, buf.String())
	}
	for metric, verdict := range map[string]string{"main_p50_ms": "worse", "aux_p50_ms": "unresolved", "psnr_db": "ok"} {
		found := false
		for _, line := range strings.Split(buf.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric {
				found = f[len(f)-1] == verdict
			}
		}
		if !found {
			t.Errorf("%s: verdict is not %q\n%s", metric, verdict, buf.String())
		}
	}
}
