package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestActivateCPUProfile drives -cpuprofile through RegisterFlags,
// Activate and flush, and checks the file holds a gzip-compressed
// pprof profile.
func TestActivateCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	var o Options
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o.RegisterFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", path}); err != nil {
		t.Fatal(err)
	}
	flush, err := o.Activate()
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for i := 0; i < 1e6; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		t.Fatalf("profile is %d bytes without the gzip header (x=%d)", len(data), x)
	}
}

// TestActivateErrorStopsProfile checks that a failed Activate leaves no
// CPU profile running, so the next Activate can start one.
func TestActivateErrorStopsProfile(t *testing.T) {
	dir := t.TempDir()
	for _, o := range []Options{
		{CPUProfilePath: filepath.Join(dir, "missing", "cpu.pprof")},
		{CPUProfilePath: filepath.Join(dir, "a.pprof"), DebugAddr: "not an address"},
	} {
		if _, err := o.Activate(); err == nil {
			t.Fatalf("Activate(%+v) succeeded", o)
		}
	}
	o := Options{CPUProfilePath: filepath.Join(dir, "b.pprof")}
	flush, err := o.Activate()
	if err != nil {
		t.Fatalf("profile left running by a failed Activate: %v", err)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
}
