package fleet

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"vbench/internal/cas"
	"vbench/internal/codec"
	"vbench/internal/codec/profiles"
	"vbench/internal/corpus"
)

// terminalError marks failures that retrying cannot fix: malformed
// specs, unknown clips or encoders, deterministic encoder rejections.
// Everything else is transient and worth another attempt — the
// explicit boundary the state machine's retry policy keys on.
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// Terminal wraps err as a terminal (non-retryable) failure.
func Terminal(err error) error {
	if err == nil {
		return nil
	}
	return &terminalError{err: err}
}

// IsTerminal reports whether err is marked terminal.
func IsTerminal(err error) bool {
	var t *terminalError
	return errors.As(err, &t)
}

// ParseEncoder maps a "family-preset" name (e.g. "x264-medium",
// "x265-veryslow", "vp9-fast") to a configured engine.
func ParseEncoder(name string) (*codec.Engine, error) {
	fam, presetName, ok := strings.Cut(name, "-")
	if !ok {
		return nil, fmt.Errorf("fleet: encoder %q is not family-preset (e.g. \"x264-medium\")", name)
	}
	p, err := codec.ParsePreset(presetName)
	if err != nil {
		return nil, fmt.Errorf("fleet: encoder %q: %w", name, err)
	}
	switch fam {
	case "x264":
		return profiles.X264(p), nil
	case "x265":
		return profiles.X265(p), nil
	case "vp9":
		return profiles.VP9(p), nil
	}
	return nil, fmt.Errorf("fleet: unknown encoder family %q (want x264, x265, or vp9)", fam)
}

// parseRC maps a spec rate-control name to the codec mode.
func parseRC(s string) (codec.RCMode, error) {
	switch s {
	case "", "cqp", "crf":
		return codec.RCConstQP, nil
	case "abr":
		return codec.RCBitrate, nil
	case "2pass":
		return codec.RCTwoPass, nil
	}
	return 0, fmt.Errorf("fleet: unknown rate-control mode %q (want cqp, abr, or 2pass)", s)
}

// specConfig maps an encode spec's transcode parameters onto the
// codec configuration. It is the single place spec fields become
// Config fields, shared by execution and by cache-key derivation —
// a field added to one but not the other would silently poison the
// cache.
func specConfig(spec JobSpec, rc codec.RCMode) codec.Config {
	return codec.Config{
		RC:           rc,
		QP:           spec.QP,
		BitrateBPS:   spec.BitrateBPS,
		KeyInterval:  spec.KeyInterval,
		Slices:       spec.Slices,
		RowsParallel: spec.RowsParallel,
	}
}

// Executor runs job attempts, optionally serving and populating a
// shared content-addressed transcode cache.
type Executor struct {
	// Cache, when non-nil, is consulted before every encode and
	// populated after; a hit skips the transcode entirely.
	Cache *cas.Store
	// DefaultRowsParallel applies the worker's wavefront default to
	// encode specs that leave RowsParallel unset. It affects only the
	// execution schedule, never the bitstream, so the cache key is
	// derived from the original spec.
	DefaultRowsParallel int
}

// Execute runs one job attempt and returns its result. Errors are
// classified: IsTerminal(err) means the job must not be retried.
// sleep implements noop-job waiting (time.Sleep in workers; the sim
// twin models execution instead of calling Execute).
func (x *Executor) Execute(spec JobSpec, attempt int, sleep func(time.Duration)) (Result, error) {
	if attempt <= spec.FailFirst {
		return Result{}, fmt.Errorf("fleet: injected transient failure (attempt %d/%d)", attempt, spec.FailFirst)
	}
	switch spec.Kind {
	case KindNoop:
		d := time.Duration(spec.SleepMS) * time.Millisecond
		if sleep != nil && d > 0 {
			sleep(d)
		}
		return Result{Seconds: d.Seconds()}, nil
	case "", KindEncode:
		return x.executeEncode(spec)
	}
	return Result{}, Terminal(fmt.Errorf("fleet: worker cannot execute job kind %q", spec.Kind))
}

// executeEncode runs a real codec transcode for an encode job,
// serving it from the transcode cache when possible and taking its
// source from the process-wide source memo.
func (x *Executor) executeEncode(spec JobSpec) (Result, error) {
	// Executor is callable without a queue in front of it; a spec the
	// queue would reject (a NaN duration, say) must not become a memo
	// key.
	if err := spec.Validate(); err != nil {
		return Result{}, Terminal(err)
	}
	key, cacheable := cas.Key{}, false
	if x.Cache != nil {
		key, cacheable = SpecCacheKey(spec)
		if cacheable {
			if o, ok := x.Cache.Get(key); ok {
				return resultFromOutcome(o), nil
			}
		}
	}
	clip, err := corpus.ClipByName(spec.Clip)
	if err != nil {
		return Result{}, Terminal(err)
	}
	eng, err := ParseEncoder(spec.Encoder)
	if err != nil {
		return Result{}, Terminal(err)
	}
	rc, err := parseRC(spec.RC)
	if err != nil {
		return Result{}, Terminal(err)
	}
	seq, err := source(clip, specSource(spec))
	if err != nil {
		return Result{}, Terminal(err)
	}
	ccfg := specConfig(spec, rc)
	if ccfg.RowsParallel == 0 {
		ccfg.RowsParallel = x.DefaultRowsParallel
	}
	out, err := cas.Compute(eng, seq, ccfg)
	if err != nil {
		// The encoder is deterministic: what failed once fails again.
		return Result{}, Terminal(err)
	}
	if x.Cache != nil && cacheable {
		// Best effort: a full disk or unwritable store must not fail
		// the job; the store's write_errors counter records it.
		_ = x.Cache.Put(key, out)
	}
	return resultFromOutcome(out), nil
}
