package vbench

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"vbench/internal/corpus"
)

// TestEncodeAllocBudget holds the encoder to the heap-allocation
// budget the repository commits to (ALLOC_BUDGET.json): mallocs per
// single-clip encode of girl @ 1/16 scale × 0.4 s, x264 medium at QP
// 28, with wavefront row parallelism off (serial rows) and on (4
// dedicated row lanes). The per-macroblock encode path is
// allocation-free by design — level arenas, candidate recycling, and
// pooled reconstruction frames (see DESIGN.md, "Memory management in
// the encode hot path") — and wavefront mode reuses per-lane arenas
// across frames, so both variants' allocations scale with frame count,
// not macroblock count. A regression that reintroduces per-MB
// allocation overshoots the budget by orders of magnitude.
func TestEncodeAllocBudget(t *testing.T) {
	budget, err := readAllocBudget("ALLOC_BUDGET.json")
	if err != nil {
		t.Fatal(err)
	}
	clip, err := corpus.ClipByName("girl")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := clip.Generate(16, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	enc := X264(PresetMedium)
	for _, wave := range []struct {
		name string
		rows int
	}{{"off", 1}, {"on", 4}} {
		cfg := Config{RC: RCConstQP, QP: 28, RowsParallel: wave.rows}
		t.Run("wave="+wave.name, func(t *testing.T) {
			// AllocsPerRun's unmeasured first call warms the scratch
			// pools, so the average reflects steady state.
			perOp := testing.AllocsPerRun(3, func() {
				if _, err := enc.Encode(seq, cfg); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f allocs/op (budget %d)", perOp, budget)
			if perOp > float64(budget) {
				t.Errorf("encode allocations %.0f/op exceed the ALLOC_BUDGET.json budget of %d/op", perOp, budget)
			}
		})
	}
}

// readAllocBudget loads the allocation budget from ALLOC_BUDGET.json
// at the repository root.
func readAllocBudget(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("reading alloc budget: %w", err)
	}
	var budget struct {
		EncodeAllocsPerOp int64 `json:"encode_allocs_per_op"`
	}
	if err := json.Unmarshal(data, &budget); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", path, err)
	}
	if budget.EncodeAllocsPerOp <= 0 {
		return 0, fmt.Errorf("%s: encode_allocs_per_op must be positive", path)
	}
	return budget.EncodeAllocsPerOp, nil
}
