package locksafe_test

import (
	"path/filepath"
	"testing"

	"vbench/internal/lint/analysistest"
	"vbench/internal/lint/locksafe"
)

func TestLocksafe(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), locksafe.Analyzer)
}

// TestLocksafeRecheck runs the check-then-fill cases (a map read
// under a mutex and written in a later critical section without a
// fresh read) from their own module under testdata/recheck.
func TestLocksafeRecheck(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "recheck"))
	if err != nil {
		t.Fatalf("resolving testdata: %v", err)
	}
	analysistest.Run(t, dir, locksafe.Analyzer)
}
