package syncx

import "runtime"

// CPUGate is a counting semaphore that bounds how many CPU-bound
// workers run at once. The process shares one instance (CPU below)
// between the harness worker pool, the codec's slice encoders, the
// wavefront row workers inside each slice, and the codec's one-frame
// analysis lookahead, so nested parallelism — a pool of grid cells,
// each encoding with multiple slices, each slice fanning rows out
// across lanes while the next frame's analysis runs alongside —
// cannot oversubscribe the machine: no matter how the layers compose,
// at most capacity goroutines do codec work concurrently.
//
// Tokens are modeled as elements in a buffered channel: Acquire sends
// (blocking while capacity holders exist), Release receives. The gate
// only throttles scheduling; it never affects outputs — payloads and
// counters are merged in deterministic order by their owners.
//
// Composition rule: a goroutine that already holds a slot (or that
// represents its caller's own thread of execution, like an Encode
// invocation) must never block on the gate while others depend on it
// — it should do queued work itself and let extra helpers join via
// AcquireOrQuit. Blocking waits while holding are what deadlock
// counting semaphores at small capacities. Every codec gate user
// follows this shape: slices and wavefront rows fan out through one
// helper join, in which the calling goroutine works through the shared
// queue itself while helpers AcquireOrQuit, and the lookahead's
// consumer analyzes a frame itself when its helper never won a slot —
// so at capacity 1 each layer degrades to its serial path instead of
// deadlocking.
type CPUGate struct {
	tokens chan struct{}
}

// NewCPUGate returns a gate admitting up to capacity concurrent
// holders; non-positive capacity selects runtime.GOMAXPROCS(0).
func NewCPUGate(capacity int) *CPUGate {
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	return &CPUGate{tokens: make(chan struct{}, capacity)}
}

// Capacity reports the maximum number of concurrent holders.
func (g *CPUGate) Capacity() int { return cap(g.tokens) }

// Acquire blocks until a slot is free and takes it.
func (g *CPUGate) Acquire() { g.tokens <- struct{}{} }

// Release frees a slot taken by Acquire or AcquireOrQuit.
func (g *CPUGate) Release() { <-g.tokens }

// AcquireOrQuit blocks until it takes a slot (reporting true) or
// until quit is closed (reporting false; no slot is held). It exists
// for helper goroutines whose work can equally be done by their
// spawner: the spawner processes the shared queue itself, closes quit
// when the queue is drained, and helpers that never got a slot simply
// exit. That shape keeps the gate deadlock-free under nesting — a
// goroutine that already holds a slot never blocks on the gate again
// (it participates in the work instead of waiting idle), so there is
// no hold-and-wait cycle at any capacity.
func (g *CPUGate) AcquireOrQuit(quit <-chan struct{}) bool {
	select {
	case g.tokens <- struct{}{}:
		return true
	case <-quit:
		return false
	}
}

// CPU is the process-wide gate for CPU-bound benchmark work, sized to
// runtime.GOMAXPROCS(0) at startup.
var CPU = NewCPUGate(0)
