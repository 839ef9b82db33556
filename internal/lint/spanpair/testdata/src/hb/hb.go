// Package hb exercises spanpair on the fleet worker's heartbeat-loop
// idiom: one span per beat, ended on every iteration path.
package hb

import "lint.test/telemetry"

func push() bool { return true }

// perBeatEnded ends the span on both the early-out and the normal
// path: clean.
func perBeatEnded(ticks <-chan struct{}) {
	for range ticks {
		sp := telemetry.StartSpan("fleet.heartbeat")
		if !push() {
			sp.End()
			continue
		}
		sp.Arg("ok", 1)
		sp.End()
	}
}

// skipLeak skips a failed beat with continue before ending its span:
// that span is still open when the next beat creates another.
func skipLeak(ticks <-chan struct{}) {
	for range ticks {
		sp := telemetry.StartSpan("fleet.heartbeat") // want `created inside a loop but not ended within the loop body`
		if !push() {
			continue
		}
		sp.End()
	}
}

// breakLeak stops on a failed beat with break before ending its span:
// that span is still open when the function falls off its end.
func breakLeak(ticks <-chan struct{}) {
	for range ticks {
		sp := telemetry.StartSpan("fleet.heartbeat") // want `span sp is not ended on the fall-through return path`
		if !push() {
			break
		}
		sp.End()
	}
}

// perBeatDeferred wraps each beat in a closure so defer fires per
// iteration — the recommended shape: clean.
func perBeatDeferred(ticks <-chan struct{}) {
	for range ticks {
		func() {
			sp := telemetry.StartSpan("fleet.heartbeat")
			defer sp.End()
			push()
		}()
	}
}

// beatNeverEnded starts a span per beat and never ends it.
func beatNeverEnded(ticks <-chan struct{}) {
	for range ticks {
		sp := telemetry.StartSpan("fleet.heartbeat") // want `created inside a loop but not ended within the loop body`
		sp.Arg("beat", 1)
		push()
	}
}

// deferInLoop defers End inside the loop body; the spans pile up
// until function exit, but End is reachable, so the analyzer accepts
// it (a documented intraprocedural limit — prefer perBeatDeferred).
func deferInLoop(ticks <-chan struct{}) {
	for range ticks {
		sp := telemetry.StartSpan("fleet.heartbeat")
		defer sp.End()
		push()
	}
}

// suppressedBeat documents a deliberately process-lifetime span.
func suppressedBeat(ticks <-chan struct{}) {
	for range ticks {
		//lint:ignore spanpair the exporter closes heartbeat spans in bulk
		sp := telemetry.StartSpan("fleet.heartbeat")
		sp.Arg("beat", 1)
	}
}
