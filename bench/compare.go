package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// recordedRun is one line of a -record file: the result line plus
// what run produced it.
type recordedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	output
}

func appendRecord(path string, r recordedRun) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("recording run: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("recording run: %w", err)
	}
	return f.Close()
}

func readRecords(path string) ([]recordedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []recordedRun
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r recordedRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// contract is the part of BENCHMARK.json the comparison needs.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// compareFiles prints one row per workload × end-to-end metric: both
// sides' medians and quartiles, B's relative difference from A (the
// positive direction is worse), the bound, A's quartile spread as a
// share of its median, and the verdict: "unresolved" when A's own
// spread exceeds the bound, "worse" when B's median is worse than A's
// by more than the bound, "ok" otherwise. Exit code 1 on any "worse"
// or any failed run.
func compareFiles(w io.Writer, specPath, aPath, bPath string) int {
	spec, err := readContract(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench-e2e:", err)
		return 2
	}
	a, err := readRecords(aPath)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no runs", aPath)
	}
	var b []recordedRun
	if err == nil {
		b, err = readRecords(bPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench-e2e:", err)
		return 2
	}
	values := func(runs []recordedRun, workload, metric string) (v []float64, failed int) {
		for _, r := range runs {
			if r.Workload != workload || r.Trace {
				continue
			}
			if !r.Correct {
				failed++
			}
			if m, ok := r.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
		return v, failed
	}
	code := 0
	fmt.Fprintf(w, "%-17s %-13s %4s %12s %12s %12s %12s %8s %6s %7s  %s\n",
		"workload", "metric", "runs", "A median", "A q1..q3", "B median", "B q1..q3", "B vs A", "bound", "spread", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			av, af := values(a, wl.Name, m.Name)
			bv, bf := values(b, wl.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			aq1, amed, aq3 := quartiles(av)
			bq1, bmed, bq3 := quartiles(bv)
			diff := ratio(bmed-amed, amed)
			if m.Better == "higher" {
				diff = -diff
			}
			spread := ratio(aq3-aq1, amed)
			verdict := "ok"
			switch {
			case af+bf > 0:
				verdict = "failed-runs"
				code = 1
			case spread > m.Bound:
				verdict = "unresolved"
			case diff > m.Bound:
				verdict = "worse"
				code = 1
			}
			fmt.Fprintf(w, "%-17s %-13s %4d %12.5g %12s %12.5g %12s %+7.2f%% %5.1f%% %6.2f%%  %s\n",
				wl.Name, m.Name, len(av), amed, fmt.Sprintf("±%.4g", (aq3-aq1)/2), bmed, fmt.Sprintf("±%.4g", (bq3-bq1)/2),
				100*diff, 100*m.Bound, 100*spread, verdict)
		}
	}
	return code
}

// selfCheck is the A/A procedure: for every workload, two interleaved
// sets of n runs of this very binary (A1 B1 A2 B2 …, run i of either
// set with seed i), each a fresh process like a run of the driver's,
// recorded and then compared. It passes when no metric of set B is
// worse than set A's by more than its bound.
func selfCheck(n int) int {
	spec, err := readContract(contractPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench-e2e:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench-e2e:", err)
		return 2
	}
	files := [2]string{filepath.Join(outDir, "selfcheck-A.jsonl"), filepath.Join(outDir, "selfcheck-B.jsonl")}
	for _, f := range files {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "vbench-e2e:", err)
			return 2
		}
	}
	for _, wl := range spec.Workloads {
		for i := 1; i <= n; i++ {
			for _, f := range files {
				cmd := exec.Command(self,
					"-workload", wl.Name, "-seed", strconv.Itoa(i),
					"-seconds", strconv.Itoa(spec.RunSeconds), "-record", f)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "vbench-e2e: %s seed %d: %v\n", wl.Name, i, err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d -> %s\n", wl.Name, i, f)
			}
		}
	}
	return compareFiles(os.Stdout, contractPath, files[0], files[1])
}
