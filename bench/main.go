// Command vbench-e2e is the repository's end-to-end benchmark: four
// long, self-checking workloads that load the system from the codec
// kernels up to the fleet, each measured from outside by timing calls
// into the layers' exported functions. BENCHMARK.json at the
// repository root is its contract; bench/README.md says how to run it
// and what each number means.
//
//	vbench-e2e -workload W -seed S -seconds T [-trace 1]
//	vbench-e2e -compare A.jsonl B.jsonl
//	vbench-e2e -selfcheck N
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"
)

// The binary runs from the root of a checkout: the contract is there,
// and the trace files, recorded runs and scratch space go to outDir.
const (
	contractPath = "BENCHMARK.json"
	outDir       = "bench/out"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var opt runOptions
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: encode_serial, encode_wavefront, grid_cache or fleet_batch")
	flag.Int64Var(&opt.seed, "seed", 1, "seed the op list is generated from")
	flag.Float64Var(&opt.seconds, "seconds", 30, "length of the timed window (it ends on a cycle boundary)")
	flag.IntVar(&trace, "trace", 0, "1: record spans on alternate cycles, probe every layer, report the per-layer metrics")
	record := flag.String("record", "", "append the run's result, with its workload and seed, to this JSONL file")
	deadline := flag.Duration("deadline", 170*time.Second, "dump goroutines and exit non-zero when a run takes longer")
	compare := flag.Bool("compare", false, "compare two JSONL files of recorded runs: -compare A.jsonl B.jsonl")
	selfcheck := flag.Int("selfcheck", 0, "A/A: two interleaved sets of N recorded runs per workload, then -compare")
	flag.Parse()
	opt.trace = trace != 0
	opt.outDir, opt.setups, opt.warmup = outDir, 3, -1

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: vbench-e2e -compare A.jsonl B.jsonl")
			return 2
		}
		return compareFiles(os.Stdout, contractPath, flag.Arg(0), flag.Arg(1))
	case *selfcheck > 0:
		return selfCheck(*selfcheck)
	}

	// A run that hangs must not be left running: say where, and exit.
	watchdog := time.AfterFunc(*deadline, func() {
		fmt.Fprintf(os.Stderr, "vbench-e2e: %s not finished after %v; goroutines:\n", opt.workload, *deadline)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench-e2e:", err)
		return 1
	}
	out := res.output(opt.trace)
	res.describe(os.Stderr, out)
	if *record != "" {
		if err := appendRecord(*record, recordedRun{Workload: opt.workload, Seed: opt.seed, Trace: opt.trace, output: out}); err != nil {
			fmt.Fprintln(os.Stderr, "vbench-e2e:", err)
			return 1
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench-e2e:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// output is the result line: the last line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) output(traced bool) output {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := output{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: d.value(r), Unit: d.unit}
	}
	return out
}

// describe prints every metric by name with its unit, the counts and
// the verdict, for a reader; the machine-readable line goes to
// standard output.
func (r *runResult) describe(w io.Writer, out output) {
	_, pct := tail(r.mainMS)
	fmt.Fprintf(w, "%s: %d cycles (main tail is p%.0f), %d set-ups, attempted %d, failed %d\n",
		r.workload, len(r.mainMS), pct, len(r.setups), r.attempted, r.failed)
	for _, side := range []struct {
		name string
		v    []float64
	}{{"main", r.mainMS}, {"aux", r.auxMS}} {
		s := sorted(side.v)
		q := func(p float64) float64 { return s[int(p*float64(len(s)-1))] }
		fmt.Fprintf(w, "  %-4s ms over %d cycles: min %.3f p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f max %.3f\n",
			side.name, len(s), s[0], q(.1), q(.25), q(.5), q(.75), q(.9), s[len(s)-1])
	}
	defs := endToEnd
	if r.ts != nil {
		defs = perLayer
		fmt.Fprintf(w, "trace: %s (%d child spans outside their parent)\n", r.tracePath, r.ts.malformed)
	}
	for _, d := range defs {
		m := out.Metrics[d.name]
		fmt.Fprintf(w, "  %-26s %14.4f %s\n", d.name, m.Value, m.Unit)
	}
	if r.failed > 0 {
		fmt.Fprintf(w, "FAILED: %s\n", r.firstErr)
	} else {
		fmt.Fprintln(w, "correct: every output verified")
	}
}
