package telemetry

import (
	"runtime"
	"testing"
	"time"
)

// TestDebugServerLeavesNoGoroutines starts the debug endpoint, shuts
// it down, and requires the goroutine count to return to its
// baseline: a serving goroutine that outlives the shutdown function
// fails here with its stack.
func TestDebugServerLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	stop, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines running, %d before the server started:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}
