package fleet

import (
	"math"
	"sync"
	"testing"

	"vbench/internal/cas"
	"vbench/internal/corpus"
)

// TestSpecCacheKeyContentPinned pins the content identity of encode
// cache keys byte for byte. The string comes from sourceKey, which the
// source memo is keyed by as well; stores written before the two shared
// one type must still hit. The rest of the key's serialization is
// pinned by the cas key golden file.
func TestSpecCacheKeyContentPinned(t *testing.T) {
	for _, tc := range []struct {
		spec    JobSpec
		content string
	}{
		{encSpec(30), "spec:girl/16/0.2"},
		{JobSpec{Clip: "holi", Encoder: "x264-medium", Scale: 8, Duration: 1, QP: 26, RowsParallel: 1}, "spec:holi/8/1"},
		{JobSpec{Clip: "desktop", Encoder: "vp9-fast", Scale: 3, Duration: 1.0 / 3, RC: "abr", BitrateBPS: 2e5}, "spec:desktop/3/0.3333333333333333"},
		{JobSpec{Clip: "cat", Encoder: "x265-veryslow", Scale: 1, Duration: 5}, "spec:cat/1/5"},
	} {
		if got := specSource(tc.spec).String(); got != tc.content {
			t.Errorf("content of %+v = %q, want %q", tc.spec, got, tc.content)
		}
		eng, err := ParseEncoder(tc.spec.Encoder)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := parseRC(tc.spec.RC)
		if err != nil {
			t.Fatal(err)
		}
		want := cas.KeyParts{
			Content:     tc.content,
			Tools:       eng.Tools,
			Config:      specConfig(tc.spec, rc),
			Fingerprint: cas.Fingerprint(),
		}.Key()
		if got, ok := SpecCacheKey(tc.spec); !ok || got != want {
			t.Errorf("SpecCacheKey(%+v) = %v (ok %v), want %v", tc.spec, got, ok, want)
		}
	}
}

// TestConcurrentExecuteSharesSource runs one spec from several
// goroutines at once; under -race it also checks that the encodes only
// read the sequence they share. The memo must synthesize the clip
// exactly once, and every result must equal an encode of a private,
// freshly generated copy.
func TestConcurrentExecuteSharesSource(t *testing.T) {
	spec := JobSpec{Clip: "holi", Encoder: "x264-veryfast", Scale: 16, Duration: 0.3, QP: 30, Slices: 2, RowsParallel: 2}
	sources.EvictAll()
	before := sources.Stats().Misses

	const n = 4
	results := make([]Result, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i], errs[i] = (&Executor{}).Execute(spec, 1, nil)
		}()
	}
	close(start)
	wg.Wait()
	if d := sources.Stats().Misses - before; d != 1 {
		t.Errorf("%d concurrent executes synthesized the source %d times, want 1", n, d)
	}

	clip, err := corpus.ClipByName(spec.Clip)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := clip.Generate(spec.Scale, spec.Duration)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ParseEncoder(spec.Encoder)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := parseRC(spec.RC)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cas.Compute(eng, seq, specConfig(spec, rc))
	if err != nil {
		t.Fatal(err)
	}
	want := resultFromOutcome(out)
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("execute %d: %v", i, errs[i])
		}
		if results[i] != want {
			t.Errorf("execute %d = %+v, want %+v (private source)", i, results[i], want)
		}
	}
}

// TestExecuteRejectsNonFiniteDuration: a spec that reaches the
// executor without passing the queue must not become a memo key.
func TestExecuteRejectsNonFiniteDuration(t *testing.T) {
	before := sources.Len()
	spec := encSpec(30)
	spec.Duration = math.NaN()
	if _, err := (&Executor{}).Execute(spec, 1, nil); !IsTerminal(err) {
		t.Errorf("NaN duration: err = %v, want a terminal error", err)
	}
	if n := sources.Len(); n != before {
		t.Errorf("memo grew from %d to %d entries on a rejected spec", before, n)
	}
}
