package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"vbench/internal/perf"
	"vbench/internal/video"
)

// The golden-digest suite pins the encoder's exact output bytes across
// a small config matrix (dimensions × tool variants × rate-control
// modes). Digests are committed in testdata/golden_digests.json, so a
// kernel swap (see internal/codec/kern) proves bitstream, recon, and
// decode byte-identity against the historical encoder in CI — not just
// against an in-process re-encode that would share any new bug.
//
// Regenerate (only when an intentional format/behaviour change is
// reviewed and documented in docs/FORMAT.md):
//
//	go test ./internal/codec -run TestGoldenDigests -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.json from the current encoder")

const goldenPath = "testdata/golden_digests.json"

// goldenDigest records the SHA-256 of an encode's bitstream, of its
// reconstruction planes (all frames, Y then Cb then Cr, concatenated)
// and of its perf.Counters. The counter digest pins the nominal work
// accounting: an optimization that skips repeated work must still bill
// it, or every modeled speed downstream moves.
type goldenDigest struct {
	Bitstream string `json:"bitstream"`
	Recon     string `json:"recon"`
	Counters  string `json:"counters"`
}

// goldenCase is one cell of the matrix.
type goldenCase struct {
	name string
	w, h int
	tool Tools
	cfg  Config
}

// goldenTools builds the tool variants exercised by the matrix: the
// preset ladder ends plus targeted single-tool deltas over medium, so
// each optimized kernel path (tx8, intra4, sharp interp, AQ, deblock,
// rich arithmetic contexts, trellis, multi-ref) is pinned by at least
// one digest.
func goldenTools() map[string]Tools {
	medium := BaselineTools(PresetMedium)

	rich := BaselineTools(PresetSlow)
	rich.Name = "golden-rich"
	rich.Entropy = EntropyArith
	rich.RichContexts = true
	rich.SharpInterp = true
	rich.AdaptiveQuant = true
	rich.Deblock = true
	rich.Intra4x4 = true
	rich.Transform8x8 = true
	rich.MaxRefs = 2
	rich.SceneCut = true

	return map[string]Tools{
		"ultrafast": BaselineTools(PresetUltraFast),
		"medium":    medium,
		"rich":      rich,
	}
}

func goldenCases() []goldenCase {
	dims := []struct{ w, h int }{
		{48, 32}, // macroblock aligned
		{36, 20}, // padded (not a multiple of 16): exercises cropFrame + edge clamping
		{64, 48},
	}
	var cases []goldenCase
	for _, d := range dims {
		for toolName, tool := range goldenTools() {
			add := func(cfgName string, cfg Config) {
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%dx%d/%s/%s", d.w, d.h, toolName, cfgName),
					w:    d.w, h: d.h, tool: tool, cfg: cfg,
				})
			}
			add("constqp", Config{RC: RCConstQP, QP: 28, KeyInterval: 4})
			add("twopass", Config{RC: RCTwoPass, BitrateBPS: 90e3})
			add("slices3", Config{RC: RCConstQP, QP: 24, Slices: 3})
		}
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].name < cases[j].name })
	return cases
}

// goldenSequence synthesizes the deterministic source clip for one
// dimension cell. Content parameters are fixed forever: changing them
// invalidates every digest.
func goldenSequence(t testing.TB, w, h int) *video.Sequence {
	t.Helper()
	seq, err := video.Generate(video.ContentParams{
		Seed: 77, Detail: 0.5, Motion: 0.4, Noise: 0.1,
		Sprites: 2, TextRegions: 1, ChromaVariety: 0.4,
	}, w, h, 6, 30)
	if err != nil {
		t.Fatalf("generating golden sequence: %v", err)
	}
	return seq
}

// reconDigest hashes every reconstruction plane in frame order.
func reconDigest(seq *video.Sequence) string {
	h := sha256.New()
	for _, f := range seq.Frames {
		h.Write(f.Y)
		h.Write(f.Cb)
		h.Write(f.Cr)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// countersDigest hashes every counter field in declaration order.
func countersDigest(c *perf.Counters) string {
	h := sha256.New()
	if err := binary.Write(h, binary.LittleEndian, c); err != nil {
		panic(err) // perf.Counters is all fixed-size integers
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bitstreamDigest(bs []byte) string {
	sum := sha256.Sum256(bs)
	return hex.EncodeToString(sum[:])
}

func TestGoldenDigests(t *testing.T) {
	want := map[string]goldenDigest{}
	if !*updateGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("reading golden digests (run with -update-golden to create): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("parsing %s: %v", goldenPath, err)
		}
	}

	got := map[string]goldenDigest{}
	seqs := map[string]*video.Sequence{}
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			key := fmt.Sprintf("%dx%d", gc.w, gc.h)
			seq := seqs[key]
			if seq == nil {
				seq = goldenSequence(t, gc.w, gc.h)
				seqs[key] = seq
			}
			eng := &Engine{Tools: gc.tool}
			res, err := eng.Encode(seq, gc.cfg)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			d := goldenDigest{
				Bitstream: bitstreamDigest(res.Bitstream),
				Recon:     reconDigest(res.Recon),
				Counters:  countersDigest(&res.Counters),
			}
			got[gc.name] = d

			// Decode must land exactly on the encoder reconstruction,
			// so one digest pins all three artifacts.
			dec, _, err := Decode(res.Bitstream)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if dd := reconDigest(dec); dd != d.Recon {
				t.Fatalf("decode digest %s != recon digest %s", dd, d.Recon)
			}

			// Wavefront row parallelism is a scheduling knob, never a
			// format change: re-encoding every golden cell with 2 and 8
			// row lanes must land on the same digests (so the committed
			// matrix pins the concurrent path too, including the
			// multi-slice × wavefront combinations).
			for _, rp := range []int{2, 8} {
				cfg := gc.cfg
				cfg.RowsParallel = rp
				wres, err := eng.Encode(seq, cfg)
				if err != nil {
					t.Fatalf("encode (rows-parallel=%d): %v", rp, err)
				}
				if bd := bitstreamDigest(wres.Bitstream); bd != d.Bitstream {
					t.Errorf("rows-parallel=%d bitstream digest %s != serial %s", rp, bd, d.Bitstream)
				}
				if rd := reconDigest(wres.Recon); rd != d.Recon {
					t.Errorf("rows-parallel=%d recon digest %s != serial %s", rp, rd, d.Recon)
				}
				if cd := countersDigest(&wres.Counters); cd != d.Counters {
					t.Errorf("rows-parallel=%d counters digest %s != serial %s", rp, cd, d.Counters)
				}
			}

			if !*updateGolden {
				w, ok := want[gc.name]
				if !ok {
					t.Fatalf("no committed digest for %q (run -update-golden and review)", gc.name)
				}
				if w != d {
					t.Errorf("digest mismatch:\n  bitstream got %s want %s\n  recon     got %s want %s\n  counters  got %s want %s",
						d.Bitstream, w.Bitstream, d.Recon, w.Recon, d.Counters, w.Counters)
				}
			}
		})
	}

	if *updateGolden {
		if t.Failed() {
			t.Fatal("not rewriting golden digests: encode failures above")
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
	} else if len(want) != len(got) {
		t.Errorf("committed digest count %d != case count %d (stale file?)", len(want), len(got))
	}
}

// flickerSequence is a static gradient whose odd frames carry a small
// bright patch in every macroblock, so each even P frame matches its
// second reference exactly and its first one nearly: the skip trial on
// reference 0 is coded, and a multi-reference search then picks
// reference 1 at the predicted vector.
func flickerSequence() *video.Sequence {
	const w, h = 64, 48
	seq := &video.Sequence{FrameRate: 30}
	for i := 0; i < 8; i++ {
		f := video.NewFrame(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				f.Y[y*w+x] = uint8(60 + x + y)
			}
		}
		for j := range f.Cb {
			f.Cb[j], f.Cr[j] = 128, 128
		}
		if i%2 == 1 {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if y%16/4 == 1 && x%16/4 == 1 {
						f.Y[y*w+x] += 24
					}
				}
			}
		}
		seq.Frames = append(seq.Frames, f)
	}
	return seq
}

// TestGoldenFlickerMultiRef pins the flicker clip's encodes at one to
// three references (digests taken from the encoder before it reused
// skip trials). The encoder reuses a coded skip trial as the inter
// candidate only when the search returns that trial's vector on
// reference 0; this clip is where the search returns the same vector
// on another reference, which the main matrix never reaches.
func TestGoldenFlickerMultiRef(t *testing.T) {
	want := map[Preset]goldenDigest{
		PresetMedium: {
			Bitstream: "e9b723c2893c03d6c8ef9bb6365e0ac09c551b72c965e0ff84d3162c65fd6ddf",
			Recon:     "1c42844b8be83c727e0aa1eb5daec4acc44d0f551840c1476a0491413fe68656",
			Counters:  "e137786946d6dbe134d4c9e4a3439dc2dfbaaf26123d01caafa5cb892fde12f1",
		},
		PresetSlow: {
			Bitstream: "cb5175aec9eacffa519b2214ddb1bba5b89ed5a8f8de8fa079133c2b6961a283",
			Recon:     "2b26998a96d4999e663af043dcd58833c5dbfc2feb3be51761b73e4f264e2ed8",
			Counters:  "63a3cd76e5e8c5709cb43294e6f027df84f1b8abf8fd89bcd3001bdb1908b85e",
		},
		PresetVerySlow: {
			Bitstream: "9e042f1b2a0c73bf792bacfe3a7b2bd0b453d2eb27299193d8201d0a2864dca0",
			Recon:     "f9bb6ddf97a247c6dfb6f592abc14494f77ab8a91626ebc9a1303d818e2c0aa6",
			Counters:  "8e53a6d7f53eb4d9e4c4a8e4b79cd2607e745fbb9f7ad7fc200d458f85e6843a",
		},
	}
	seq := flickerSequence()
	for _, pr := range []Preset{PresetMedium, PresetSlow, PresetVerySlow} {
		eng := &Engine{Tools: BaselineTools(pr)}
		res, err := eng.Encode(seq, Config{RC: RCConstQP, QP: 24})
		if err != nil {
			t.Fatalf("%v: %v", pr, err)
		}
		got := goldenDigest{
			Bitstream: bitstreamDigest(res.Bitstream),
			Recon:     reconDigest(res.Recon),
			Counters:  countersDigest(&res.Counters),
		}
		if got != want[pr] {
			t.Errorf("%v: digest mismatch:\n  got  %+v\n  want %+v", pr, got, want[pr])
		}
	}
}
