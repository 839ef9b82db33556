package fleet

import "vbench/internal/cas"

// SpecCacheKey derives the content-addressed cache key of an encode
// job spec. ok is false for specs that must not be cached or deduped:
// non-encode kinds, fault-injection specs (FailFirst makes execution
// attempt-dependent), and specs whose encoder or rate-control name
// does not parse (those fail terminally at execution time and caching
// the submission-side key would be meaningless).
//
// The clip geometry stands in for pixel content: corpus clips are
// procedurally generated, so (clip, scale, duration) determines the
// input sequence exactly (sourceKey, shared with the worker's source
// memo). The key uses the spec's own RowsParallel —
// before any worker-side default is applied — because the submission
// is what the fleet dedups on, and a worker default does not change
// the bitstream (codec.Config documents row parallelism as
// bit-exact).
func SpecCacheKey(spec JobSpec) (cas.Key, bool) {
	if spec.Kind != "" && spec.Kind != KindEncode {
		return cas.Key{}, false
	}
	if spec.FailFirst > 0 {
		return cas.Key{}, false
	}
	eng, err := ParseEncoder(spec.Encoder)
	if err != nil {
		return cas.Key{}, false
	}
	rc, err := parseRC(spec.RC)
	if err != nil {
		return cas.Key{}, false
	}
	parts := cas.KeyParts{
		Content:     specSource(spec).String(),
		Tools:       eng.Tools,
		Config:      specConfig(spec, rc),
		Fingerprint: cas.Fingerprint(),
	}
	return parts.Key(), true
}

// resultFromOutcome converts a cached transcode outcome into the
// fleet's job result shape. Worker and Attempt are left for the
// caller: a cache hit has no executing worker.
func resultFromOutcome(o *cas.Outcome) Result {
	return Result{
		Bytes:      int64(len(o.Bitstream)),
		PSNR:       o.PSNR,
		Seconds:    o.Seconds,
		InputBytes: o.InputBytes,
	}
}
