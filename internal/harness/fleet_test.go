package harness

import (
	"testing"

	"vbench/internal/corpus"
	"vbench/internal/fleet"
)

func TestFleetJobSpecs(t *testing.T) {
	clips := corpus.VBenchClips()
	encs := []string{"x264-medium", "x265-veryslow"}
	specs := FleetJobSpecs(clips, encs, 16, 0.4, 30)
	if len(specs) != len(clips)*len(encs) {
		t.Fatalf("got %d specs, want %d", len(specs), len(clips)*len(encs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %s invalid: %v", s.Tag, err)
		}
		if seen[s.Tag] {
			t.Errorf("duplicate tag %s", s.Tag)
		}
		seen[s.Tag] = true
		if _, err := fleet.ParseEncoder(s.Encoder); err != nil {
			t.Errorf("spec %s: %v", s.Tag, err)
		}
	}
	if !seen[clips[0].Name+"/x264-medium"] {
		t.Error("expected clip/encoder tags")
	}
}

func TestFleetJobSpecExecutes(t *testing.T) {
	// One grid cell through the real worker execution path.
	specs := FleetJobSpecs(corpus.VBenchClips()[:1], []string{"x264-veryfast"}, 16, 0.2, 30)
	res, err := (&fleet.Executor{}).Execute(specs[0], 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes <= 0 || res.PSNR <= 0 || res.Seconds <= 0 {
		t.Errorf("result = %+v", res)
	}
}
