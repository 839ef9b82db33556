// Command vbench runs the benchmark's scoring scenarios and prints
// the corresponding tables of the paper (Tables 2–5), comparing
// measured ratios against the published values.
//
// Usage:
//
//	vbench -scenario vod            # Table 3: NVENC/QSV under VOD
//	vbench -scenario live           # Table 4: NVENC/QSV under Live
//	vbench -scenario popular        # Table 5: x265/vp9 under Popular
//	vbench -scenario economics      # Section 2.5: Popular-pass and retention break-even
//	vbench -scenario all -scale 8 -duration 1
//	vbench -scenario all -j 4       # fan the grid out over 4 workers
//	vbench -scenarios               # print Table 1 (scoring rules)
//
// Grid cells (clip × scenario × encoder) are independent, so -j N
// evaluates them on N workers; results are assembled in grid order,
// making the output byte-identical at any worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"vbench/internal/cas"
	"vbench/internal/harness"
	"vbench/internal/scoring"
	"vbench/internal/tables"
	"vbench/internal/telemetry"
)

func main() {
	scenario := flag.String("scenario", "all", "scenario to run: upload|live|vod|popular|table2|ablation|isasweep|decode|economics|all")
	scale := flag.Int("scale", 8, "linear resolution divisor (1 = paper scale)")
	duration := flag.Float64("duration", 1.0, "clip duration in seconds (paper uses 5)")
	verbose := flag.Bool("v", false, "print per-encode progress")
	listScenarios := flag.Bool("scenarios", false, "print the scoring functions and constraints (Table 1)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "benchmark-grid worker count (output is identical at any -j)")
	cacheDir := flag.String("cache-dir", "", "content-addressed transcode cache directory: re-runs serve unchanged encodes from disk instead of recomputing them")
	var topts telemetry.Options
	topts.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *listScenarios {
		printTable1()
		return
	}

	flush, err := topts.Activate()
	if err != nil {
		fatal(err)
	}

	r := harness.NewRunner(*scale, *duration)
	r.Workers = *workers
	r.RegisterMetrics(telemetry.Default)
	if *cacheDir != "" {
		store, err := cas.Open(*cacheDir, telemetry.Default)
		if err != nil {
			fatal(fmt.Errorf("opening cache %s: %w", *cacheDir, err))
		}
		r.Cache = store
	}
	if *verbose {
		r.Progress = telemetry.NewLineWriter(os.Stderr)
	}

	emit := func(t *tables.Table) {
		if *csv {
			if err := t.RenderCSV(os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
		fmt.Println(t)
	}

	run := func(name string) {
		switch name {
		case "table2":
			t, err := r.Table2()
			if err != nil {
				fatal(err)
			}
			emit(t)
		case "vod":
			t, _, err := r.Table3()
			if err != nil {
				fatal(err)
			}
			emit(t)
		case "live":
			t, _, err := r.Table4()
			if err != nil {
				fatal(err)
			}
			emit(t)
		case "popular":
			t, _, err := r.Table5()
			if err != nil {
				fatal(err)
			}
			emit(t)
		case "upload":
			t, err := r.UploadStudy()
			if err != nil {
				fatal(err)
			}
			emit(t)
		case "platform":
			t, err := r.PlatformStudy()
			if err != nil {
				fatal(err)
			}
			emit(t)
		case "ablation":
			t, err := r.AblationStudy("girl")
			if err != nil {
				fatal(err)
			}
			emit(t)
		case "isasweep":
			t, err := r.ISASweepStudy()
			if err != nil {
				fatal(err)
			}
			emit(t)
		case "decode":
			t, err := r.DecodeStudy()
			if err != nil {
				fatal(err)
			}
			emit(t)
		case "economics":
			t, err := r.EconomicsStudy()
			if err != nil {
				fatal(err)
			}
			emit(t)
		default:
			fatal(fmt.Errorf("unknown scenario %q", name))
		}
	}

	if *scenario == "all" {
		for _, s := range []string{"table2", "vod", "live", "popular", "upload", "platform"} {
			run(s)
		}
	} else {
		run(*scenario)
	}
	if *verbose {
		printPoolStats(r)
	}
	if err := flush(); err != nil {
		fatal(err)
	}
}

// printPoolStats reports how the grid cells were spread across the
// worker pool (only meaningful with -j > 1).
func printPoolStats(r *harness.Runner) {
	for _, s := range r.PoolStats() {
		fmt.Fprintf(os.Stderr, "worker %d: %d cells, %v busy\n", s.Worker, s.Jobs, s.Busy)
	}
}

func printTable1() {
	t := tables.New("Table 1: vbench scoring functions and constraints",
		"scenario", "constraint", "score")
	rows := [][3]string{
		{scoring.Upload.String(), "B > 0.2", "S x Q"},
		{scoring.Live.String(), "speed >= output Mpixel/s", "B x Q"},
		{scoring.VOD.String(), "Q >= 1 or PSNR >= 50 dB", "S x B"},
		{scoring.Popular.String(), "B, Q >= 1 and S >= 0.1", "B x Q"},
		{scoring.Platform.String(), "B = 1 and Q = 1", "S"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2])
	}
	fmt.Println(t)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vbench:", err)
	os.Exit(1)
}
