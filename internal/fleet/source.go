package fleet

import (
	"fmt"

	"vbench/internal/corpus"
	"vbench/internal/syncx"
	"vbench/internal/video"
)

// sourceKey identifies an encode job's input sequence. Corpus clips
// are procedurally generated, so (clip, scale, duration) determines
// the pixels exactly: the same key is the source memo's key and, via
// String, the content identity SpecCacheKey hashes — the two cannot
// drift apart.
type sourceKey struct {
	clip     string
	scale    int
	duration float64
}

func specSource(s JobSpec) sourceKey {
	return sourceKey{clip: s.Clip, scale: s.Scale, duration: s.Duration}
}

// String is the content part of an encode job's cache key. Its bytes
// are part of every stored key: changing the format orphans every
// entry already on disk.
func (k sourceKey) String() string {
	return fmt.Sprintf("spec:%s/%d/%g", k.clip, k.scale, k.duration)
}

// sourceMemoCap bounds the pixel bytes the source memo retains. The
// whole 15-clip corpus at scale 8 and 5 s is about 60 MB.
const sourceMemoCap = 256 << 20

// sources memoizes synthesized input clips for the whole process —
// the stand-in for a real transcode worker's local copy of an upload,
// shared by every Worker and Executor (one worker per vbenchd process
// is the deployment shape). Sequences are shared read-only across
// concurrent encodes: codec.Engine.Encode never writes to its source.
var sources = syncx.Memo[sourceKey, *video.Sequence]{
	Size: func(s *video.Sequence) int64 { return s.PixelCount() * 3 / 2 },
}

// source returns the sequence for k, synthesizing it on first use.
// Past the cap the memo drops every completed entry: the working set
// of a fleet is a handful of clips, so a rare full reset costs less
// than tracking recency.
func source(clip corpus.Clip, k sourceKey) (*video.Sequence, error) {
	seq, err := sources.Do(k, func() (*video.Sequence, error) {
		return clip.Generate(k.scale, k.duration)
	})
	if err == nil && sources.Bytes() > sourceMemoCap {
		sources.EvictAll()
	}
	return seq, err
}
