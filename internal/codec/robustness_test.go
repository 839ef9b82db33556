package codec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"vbench/internal/rng"
	"vbench/internal/video"
)

// The decoder is the trust boundary of the codec: it consumes bytes
// from outside. These tests assert it never panics and always returns
// a decoded sequence or an error, regardless of input corruption.

func encodeFixture(t *testing.T) []byte {
	t.Helper()
	src := testSequence(t, 64, 48, 5, defaultParams())
	tools := BaselineTools(PresetMedium)
	tools.Transform8x8 = true
	res, err := (&Engine{Tools: tools}).Encode(src, Config{RC: RCConstQP, QP: 28})
	if err != nil {
		t.Fatal(err)
	}
	return res.Bitstream
}

// safeDecode decodes and converts panics into test failures.
func safeDecode(t *testing.T, data []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("decoder panicked on corrupt input: %v", r)
		}
	}()
	_, _, _ = Decode(data)
}

func TestDecoderSurvivesSingleByteCorruption(t *testing.T) {
	data := encodeFixture(t)
	r := rng.New(1)
	// Flip bytes at many positions, including all header bytes.
	positions := make([]int, 0, 300)
	for i := 0; i < 22 && i < len(data); i++ {
		positions = append(positions, i)
	}
	for i := 0; i < 250; i++ {
		positions = append(positions, r.Intn(len(data)))
	}
	for _, pos := range positions {
		c := append([]byte(nil), data...)
		c[pos] ^= byte(1 + r.Intn(255))
		safeDecode(t, c)
	}
}

func TestDecoderSurvivesTruncation(t *testing.T) {
	data := encodeFixture(t)
	for cut := 0; cut <= len(data); cut += 7 {
		safeDecode(t, data[:cut])
	}
}

func TestDecoderSurvivesRandomGarbage(t *testing.T) {
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		n := r.Intn(2048)
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(r.Uint64())
		}
		// Valid magic half the time so parsing goes deeper.
		if n >= 4 && i%2 == 0 {
			copy(data, magic)
		}
		safeDecode(t, data)
	}
}

// FuzzDecode: whatever bytes reach Decode, it returns an error or a
// decoded sequence; it never panics or hangs. The seeds are the
// bitstreams of the golden matrix (every tool variant, slices and
// rate-control mode); testdata/fuzz/FuzzDecode holds an input on which
// the arithmetic decoder's Exp-Golomb escape used to loop forever, and
// one that decoded three 8192×8192 frames of made-up macroblocks from
// empty payloads.
func FuzzDecode(f *testing.F) {
	seqs := map[string]*video.Sequence{}
	for _, gc := range goldenCases() {
		key := fmt.Sprintf("%dx%d", gc.w, gc.h)
		if seqs[key] == nil {
			seqs[key] = goldenSequence(f, gc.w, gc.h)
		}
		res, err := (&Engine{Tools: gc.tool}).Encode(seqs[key], gc.cfg)
		if err != nil {
			f.Fatalf("%s: %v", gc.name, err)
		}
		f.Add(res.Bitstream)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, c, err := Decode(data)
		if err == nil && (seq == nil || c == nil) {
			t.Fatal("Decode returned neither a sequence nor an error")
		}
	})
}

// TestDecoderBoundsWorkByPayload: 35 bytes declare three 8192×8192
// arithmetic-coded frames whose slice payloads are empty. The
// arithmetic decoder reads zeros past the end of a payload, so before
// decoding stopped at the first overread this stream decoded 786 432
// made-up macroblocks and returned no error. testdata/fuzz/FuzzDecode
// holds the same bytes.
func TestDecoderBoundsWorkByPayload(t *testing.T) {
	data := []byte("VBC1 \x00 \x00\x00\x00u0\x00\x03\x01\x01\x01" +
		"\x00\x1a\x00\x00\x00\x00\x01\x1a\x00\x00\x00\x00\x01\x1a\x00\x00\x00\x00")
	if len(data) != 35 {
		t.Fatalf("stream is %d bytes, want 35", len(data))
	}
	_, _, err := Decode(data)
	if err == nil || !strings.HasPrefix(err.Error(), "codec: frame 0 slice 0: MB (0,0): ") {
		t.Errorf("Decode = %v, want an error at frame 0's first macroblock", err)
	}
}

func TestDecoderRejectsOversizedDimensions(t *testing.T) {
	data := encodeFixture(t)
	c := append([]byte(nil), data...)
	c[4], c[5] = 0xFF, 0xFE // width 65534
	if _, _, err := Decode(c); err == nil {
		t.Error("oversized width accepted")
	}
}

func TestBitstreamDeterminism(t *testing.T) {
	// Identical inputs must produce byte-identical bitstreams — the
	// property that makes every benchmark score reproducible.
	hash := func() string {
		src := testSequence(t, 64, 48, 5, defaultParams())
		tools := BaselineTools(PresetSlow)
		res, err := (&Engine{Tools: tools}).Encode(src, Config{RC: RCTwoPass, BitrateBPS: 300_000})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(res.Bitstream)
		return hex.EncodeToString(h[:])
	}
	a, b := hash(), hash()
	if a != b {
		t.Fatalf("encoder not deterministic: %s vs %s", a, b)
	}
}

func TestCountersDeterministic(t *testing.T) {
	run := func() int64 {
		src := testSequence(t, 64, 48, 4, defaultParams())
		res, err := (&Engine{Tools: BaselineTools(PresetMedium)}).Encode(src, Config{RC: RCConstQP, QP: 30})
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters.TotalOps()
	}
	if run() != run() {
		t.Error("work counters not deterministic")
	}
}
