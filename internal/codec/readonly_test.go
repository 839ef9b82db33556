package codec

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"vbench/internal/video"
)

// planeDigests hashes every plane of every frame, so a failure names
// the frame and plane that changed.
func planeDigests(seq *video.Sequence) [][3][sha256.Size]byte {
	d := make([][3][sha256.Size]byte, len(seq.Frames))
	for i, f := range seq.Frames {
		d[i] = [3][sha256.Size]byte{sha256.Sum256(f.Y), sha256.Sum256(f.Cb), sha256.Sum256(f.Cr)}
	}
	return d
}

// TestEncodeLeavesSourceUntouched pins that Encode only reads its
// source. The fleet shares one synthesized sequence across concurrent
// encodes, so an encoder stage that filtered, padded or recycled source
// frames in place would corrupt every other encode of that clip. Each
// case encodes twice — the second run reuses pooled frames the first
// returned — and checks every source plane after both.
func TestEncodeLeavesSourceUntouched(t *testing.T) {
	denoise := BaselineTools(PresetMedium)
	denoise.Denoise = 2
	for _, tc := range []struct {
		name  string
		w, h  int
		tools Tools
		cfg   Config
	}{
		{"aligned", 64, 48, BaselineTools(PresetMedium), Config{RC: RCConstQP, QP: 28}},
		{"padded", 72, 40, BaselineTools(PresetMedium), Config{RC: RCConstQP, QP: 28}},
		{"denoise", 64, 48, denoise, Config{RC: RCConstQP, QP: 28}},
		{"denoise-padded", 72, 40, denoise, Config{RC: RCConstQP, QP: 28}},
		{"twopass", 72, 40, BaselineTools(PresetMedium), Config{RC: RCTwoPass, BitrateBPS: 120e3}},
		{"slices2", 64, 64, BaselineTools(PresetMedium), Config{RC: RCConstQP, QP: 28, Slices: 2}},
		{"rows2", 64, 64, BaselineTools(PresetMedium), Config{RC: RCConstQP, QP: 28, RowsParallel: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := testSequence(t, tc.w, tc.h, 6, defaultParams())
			want := planeDigests(src)
			eng := &Engine{Tools: tc.tools}
			var first []byte
			for run := 0; run < 2; run++ {
				res, err := eng.Encode(src, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, d := range planeDigests(src) {
					for p, name := range []string{"Y", "Cb", "Cr"} {
						if d[p] != want[i][p] {
							t.Fatalf("run %d: Encode wrote to source frame %d plane %s", run, i, name)
						}
					}
				}
				if run == 0 {
					first = res.Bitstream
				} else if !bytes.Equal(res.Bitstream, first) {
					t.Fatal("re-encoding the same source changed the bitstream")
				}
			}
		})
	}
}
