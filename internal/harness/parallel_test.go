package harness

import (
	"strings"
	"sync"
	"testing"

	"vbench/internal/corpus"
	"vbench/internal/scoring"
	"vbench/internal/video"
)

// TestRunnerCachesComputeExactlyOnce hammers every memoized Runner
// entry point from many goroutines and asserts each cache key was
// computed exactly once (the progress log carries one line per actual
// computation, so duplicated work would double-emit). Run with -race
// this is also the cache's data-race test.
func TestRunnerCachesComputeExactlyOnce(t *testing.T) {
	var sb strings.Builder
	r := tiny()
	r.Progress = &sb
	c := clip(t, "bike")

	const goroutines = 32
	seqs := make([]*video.Sequence, goroutines)
	entropies := make([]float64, goroutines)
	targets := make([]float64, goroutines)
	refs := make([]*Measured, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := r.Sequence(c)
			if err != nil {
				t.Error(err)
				return
			}
			seqs[i] = s
			e, err := r.ClipEntropy(c)
			if err != nil {
				t.Error(err)
				return
			}
			entropies[i] = e
			b, err := r.TargetBitrate(c)
			if err != nil {
				t.Error(err)
				return
			}
			targets[i] = b
			m, err := r.Reference(scoring.VOD, c)
			if err != nil {
				t.Error(err)
				return
			}
			refs[i] = m
		}(i)
	}
	wg.Wait()

	for i := 1; i < goroutines; i++ {
		if seqs[i] != seqs[0] {
			t.Fatalf("goroutine %d got a different sequence instance", i)
		}
		if refs[i] != refs[0] {
			t.Fatalf("goroutine %d got a different reference instance", i)
		}
		if entropies[i] != entropies[0] || targets[i] != targets[0] {
			t.Fatalf("goroutine %d got different scalar results", i)
		}
	}

	// One computation = one progress line. Check-then-act caches used
	// to double-compute AND double-emit here.
	log := sb.String()
	if n := strings.Count(log, "entropy "); n != 1 {
		t.Errorf("entropy computed %d times, want 1\n%s", n, log)
	}
	if n := strings.Count(log, "reference "); n != 1 {
		t.Errorf("reference computed %d times, want 1\n%s", n, log)
	}
}

// runAtWorkers renders a set of harness tables at a given worker
// count, concatenated, using a fresh Runner (fresh caches) per call.
func runAtWorkers(t *testing.T, workers int) string {
	t.Helper()
	r := tiny()
	r.Workers = workers

	var sb strings.Builder
	tab, _, err := r.Figure2("bike", []float64{0.5, 4})
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(tab.String())

	points, err := r.UArchStudy([]corpus.Suite{corpus.SuiteSPEC17, corpus.SuiteVBench})
	if err != nil {
		t.Fatal(err)
	}
	f5, err := Figure5(points)
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(f5.String())

	tab2, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(tab2.String())

	// The Popular encodes are x265 veryslow's exhaustive search, the
	// costliest cell in the tree under -race; a coarser Runner keeps
	// the table's determinism pinned at a fraction of the time.
	er := NewRunner(32, 0.1)
	er.Workers = workers
	econ, err := er.EconomicsStudy()
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(econ.String())
	return sb.String()
}

// TestParallelOutputMatchesSerial is the harness determinism
// guarantee: a parallel run (-j 8) renders byte-identical tables to a
// serial run (-j 1).
func TestParallelOutputMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("renders multi-clip grids twice")
	}
	serial := runAtWorkers(t, 1)
	parallel := runAtWorkers(t, 8)
	if serial != parallel {
		t.Errorf("parallel output differs from serial output\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestUArchSeedsOrderIndependent pins the seed-derivation fix: seeds
// come from the suite/clip identity, not the accumulation order, so
// evaluating suites in a different order yields identical profiles.
func TestUArchSeedsOrderIndependent(t *testing.T) {
	r := tiny()
	fwd, err := r.UArchStudy([]corpus.Suite{corpus.SuiteSPEC17, corpus.SuiteSPEC06})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := r.UArchStudy([]corpus.Suite{corpus.SuiteSPEC06, corpus.SuiteSPEC17})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]UArchPoint{}
	for _, p := range fwd {
		byKey[string(p.Suite)+"/"+p.Clip.Name] = p
	}
	if len(rev) != len(fwd) {
		t.Fatalf("point counts differ: %d vs %d", len(fwd), len(rev))
	}
	for _, p := range rev {
		q, ok := byKey[string(p.Suite)+"/"+p.Clip.Name]
		if !ok {
			t.Fatalf("point %s/%s missing from forward run", p.Suite, p.Clip.Name)
		}
		if *p.Profile != *q.Profile {
			t.Errorf("%s/%s profile depends on evaluation order", p.Suite, p.Clip.Name)
		}
	}
}

func TestStableSeedProperties(t *testing.T) {
	a := stableSeed("vbench/girl")
	if a != stableSeed("vbench/girl") {
		t.Error("stableSeed not deterministic")
	}
	if a == stableSeed("vbench/bike") {
		t.Error("distinct names collided")
	}
	if a == 0 || a == 1 {
		t.Error("seed collides with the reserved defaults")
	}
}

// TestPoolStatsExposed verifies the Runner reports per-worker timing
// counters after a grid run.
func TestPoolStatsExposed(t *testing.T) {
	r := tiny()
	r.Workers = 2
	if r.PoolStats() != nil {
		t.Error("stats before any grid run")
	}
	if _, _, err := r.Figure2("bike", []float64{0.5, 4}); err != nil {
		t.Fatal(err)
	}
	stats := r.PoolStats()
	if len(stats) != 2 {
		t.Fatalf("stats for %d workers, want 2", len(stats))
	}
	jobs := 0
	for _, s := range stats {
		jobs += s.Jobs
	}
	if jobs != 6 {
		t.Errorf("stats count %d cells, want 6 (3 encoders x 2 bitrates)", jobs)
	}
}
