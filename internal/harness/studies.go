package harness

import (
	"fmt"
	"math"
	"sort"

	"vbench/internal/codec"
	"vbench/internal/codec/hw"
	"vbench/internal/codec/profiles"
	"vbench/internal/corpus"
	"vbench/internal/perf"
	"vbench/internal/scoring"
	"vbench/internal/tables"
	"vbench/internal/uarch"
)

// UploadStudy exercises the Upload scenario (not tabulated in the
// paper, but one of its five scoring functions): the first transcode
// of a new upload needs speed and quality, while bitrate may balloon
// up to 5× the reference. Candidates are the fast paths a service
// would consider: the software encoder at its fastest preset and the
// two hardware encoders, all at constant quality.
func (r *Runner) UploadStudy() (*tables.Table, error) {
	cands := []struct {
		name string
		eng  *codec.Engine
	}{
		{"x264-ultrafast", profiles.X264(codec.PresetUltraFast)},
		{"NVENC", hw.NVENC()},
		{"QSV", hw.QSV()},
	}
	clips := corpus.VBenchClips()
	type cell struct {
		ratios scoring.Ratios
		score  scoring.Score
	}
	grid := make([]cell, len(clips)*len(cands))
	err := r.pool().ForEach(len(grid), func(i int) error {
		c := clips[i/len(cands)]
		cand := cands[i%len(cands)]
		seq, err := r.Sequence(c)
		if err != nil {
			return err
		}
		ref, err := r.Reference(scoring.Upload, c)
		if err != nil {
			return err
		}
		m, err := r.Measure(cand.eng, seq, codec.Config{RC: codec.RCConstQP, QP: 20})
		if err != nil {
			return fmt.Errorf("upload %s/%s: %w", c.Name, cand.name, err)
		}
		ratios, err := scoring.ComputeRatios(m.Measurement, ref.Measurement)
		if err != nil {
			return err
		}
		grid[i] = cell{ratios, scoring.Evaluate(scoring.Upload, ratios, scoring.Constraint{CandidatePSNR: m.PSNR})}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := tables.New("Upload scenario: fast constant-quality first transcode",
		"clip", "enc", "S", "B", "Q", "Upload score")
	for i, g := range grid {
		t.AddRowf(clips[i/len(cands)].Name, cands[i%len(cands)].name, g.ratios.S, g.ratios.B, g.ratios.Q, scoreCell(g.score))
	}
	t.AddNote("constraint: B > 0.2 (the transcode is a temporary file); score S x Q")
	return t, nil
}

// PlatformStudy exercises the Platform scenario: the encoder and
// settings are frozen (so the bitstream, bitrate, and quality are
// identical by construction — B = Q = 1 exactly) and only the machine
// changes. The study compares the reference i7-6700K model against an
// overclocked variant and against SIMD-generation downgrades, the
// kind of platform questions (compiler, ISA, microarchitecture) the
// paper aligns with SPEC.
func (r *Runner) PlatformStudy() (*tables.Table, error) {
	platforms := []struct {
		name  string
		model *perf.CostModel
	}{
		{"i7-6700K @4.5GHz", scaledClock(perf.ReferenceCPU(), 4.5e9)},
		{"i7-6700K AVX", perf.ReferenceCPU().WithISA(perf.ISAAVX)},
		{"i7-6700K SSE4", perf.ReferenceCPU().WithISA(perf.ISASSE4)},
		{"i7-6700K SSE2", perf.ReferenceCPU().WithISA(perf.ISASSE2)},
		{"i7-6700K scalar", perf.ReferenceCPU().WithISA(perf.ISAScalar)},
	}
	clips := corpus.VBenchClips()
	refs := make([]*Measured, len(clips))
	err := r.pool().ForEach(len(clips), func(i int) error {
		ref, err := r.Reference(scoring.Platform, clips[i])
		refs[i] = ref
		return err
	})
	if err != nil {
		return nil, err
	}
	t := tables.New("Platform scenario: same encoder and settings, different machine",
		"clip", "platform", "S", "Platform score")
	for i, c := range clips {
		ref := refs[i]
		refSeconds := ref.Result.Seconds
		for _, p := range platforms {
			newSeconds := p.model.Seconds(&ref.Result.Counters)
			ratios := scoring.Ratios{S: refSeconds / newSeconds, B: 1, Q: 1}
			score := scoring.Evaluate(scoring.Platform, ratios, scoring.Constraint{})
			t.AddRowf(c.Name, p.name, ratios.S, scoreCell(score))
		}
	}
	t.AddNote("B = Q = 1 by construction (identical bitstream); score is the speed ratio S")
	return t, nil
}

func scaledClock(m *perf.CostModel, hz float64) *perf.CostModel {
	c := *m
	c.ClockHz = hz
	c.Name = fmt.Sprintf("%s@%.1fGHz", m.Name, hz/1e9)
	return &c
}

// AblationStudy quantifies what each compression tool contributes:
// starting from the medium tool set, each tool is removed in turn and
// the clip re-encoded at constant quality; the bitrate delta is the
// tool's compression value, and the modeled-time delta its cost. This
// is the design-exploration use the paper envisions for the benchmark.
func (r *Runner) AblationStudy(clipName string) (*tables.Table, error) {
	clip, err := corpus.ClipByName(clipName)
	if err != nil {
		return nil, err
	}
	seq, err := r.Sequence(clip)
	if err != nil {
		return nil, err
	}
	base := codec.BaselineTools(codec.PresetSlow)
	variants := []struct {
		name   string
		mutate func(*codec.Tools)
	}{
		{"full (slow preset)", func(t *codec.Tools) {}},
		{"-arith entropy", func(t *codec.Tools) { t.Entropy = codec.EntropyGolomb }},
		{"-8x8 transform", func(t *codec.Tools) { t.Transform8x8 = false }},
		{"-trellis", func(t *codec.Tools) { t.Trellis = false }},
		{"-adaptive quant", func(t *codec.Tools) { t.AdaptiveQuant = false }},
		{"-deblock", func(t *codec.Tools) { t.Deblock = false }},
		{"-subpel", func(t *codec.Tools) { t.SubPel = 0 }},
		{"-multi-ref", func(t *codec.Tools) { t.MaxRefs = 1 }},
		{"diamond search", func(t *codec.Tools) { t.Search = 0; t.SearchRange = 8 }},
		{"+denoise", func(t *codec.Tools) { t.Denoise = 2 }},
		{"+sharp interp", func(t *codec.Tools) { t.SharpInterp = true }},
		{"+intra 4x4", func(t *codec.Tools) { t.Intra4x4 = true }},
	}
	type cell struct {
		bits, psnr, sec float64
	}
	cells := make([]cell, len(variants))
	err = r.pool().ForEach(len(variants), func(i int) error {
		tools := base
		variants[i].mutate(&tools)
		eng := &codec.Engine{Tools: tools, Model: perf.ReferenceCPU()}
		m, err := r.Measure(eng, seq, codec.Config{RC: codec.RCConstQP, QP: 28})
		if err != nil {
			return fmt.Errorf("ablation %s: %w", variants[i].name, err)
		}
		cells[i] = cell{bits: m.BitratePPS, psnr: m.PSNR, sec: m.Result.Seconds}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := tables.New(fmt.Sprintf("Tool ablation at constant quality (QP 28, %s)", clipName),
		"variant", "bits vs full (%)", "PSNR (dB)", "modeled time vs full (%)")
	baseBits, baseSec := cells[0].bits, cells[0].sec
	for i, v := range variants {
		t.AddRowf(v.name, 100*cells[i].bits/baseBits, cells[i].psnr, 100*cells[i].sec/baseSec)
	}
	t.AddNote("removing a tool should not reduce bitrate at iso-QP; cost savings show the speed/compression trade")
	return t, nil
}

// DecodeStudy measures decoder-side work: the paper notes decoding is
// deterministic and much cheaper than encoding; this quantifies the
// asymmetry under the cost model.
func (r *Runner) DecodeStudy() (*tables.Table, error) {
	clips := corpus.VBenchClips()
	type cell struct {
		encOps, decOps int64
	}
	cells := make([]cell, len(clips))
	err := r.pool().ForEach(len(clips), func(i int) error {
		c := clips[i]
		ref, err := r.Reference(scoring.VOD, c)
		if err != nil {
			return err
		}
		_, dc, err := codec.Decode(ref.Result.Bitstream)
		if err != nil {
			return fmt.Errorf("decode %s: %w", c.Name, err)
		}
		cells[i] = cell{encOps: ref.Result.Counters.TotalOps(), decOps: dc.TotalOps()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := tables.New("Encode/decode work asymmetry (VOD reference transcodes)",
		"clip", "encode ops", "decode ops", "ratio")
	for i, c := range clips {
		t.AddRowf(c.Name, float64(cells[i].encOps), float64(cells[i].decOps), float64(cells[i].encOps)/float64(cells[i].decOps))
	}
	t.AddNote("the paper: decode is deterministic and fast; encode dominates transcode cost")
	return t, nil
}

// ISASweepStudy reports the whole-suite SIMD speedup ladder (the
// headline of Section 5.2: SSE2 onward buys only ~15%).
func (r *Runner) ISASweepStudy() (*tables.Table, error) {
	t := tables.New("SIMD ISA sweep: modeled speedup over scalar (geomean across clips)",
		"ISA", "speedup", "vs previous")
	clips := corpus.VBenchClips()
	counters := make([]*perf.Counters, len(clips))
	err := r.pool().ForEach(len(clips), func(i int) error {
		ref, err := r.Reference(scoring.VOD, clips[i])
		if err != nil {
			return err
		}
		counters[i] = &ref.Result.Counters
		return nil
	})
	if err != nil {
		return nil, err
	}
	prev := 0.0
	for isa := perf.ISAScalar; isa < perf.NumISA; isa++ {
		prod := 1.0
		for _, c := range counters {
			s := uarch.TotalSeconds(c, perf.ISAScalar, 4e9) / uarch.TotalSeconds(c, isa, 4e9)
			prod *= s
		}
		speedup := pow(prod, 1/float64(len(counters)))
		rel := 1.0
		if prev > 0 {
			rel = speedup / prev
		}
		t.AddRowf(isa.String(), speedup, rel)
		prev = speedup
	}
	t.AddNote("paper: improvement beyond SSE2 totals ~15%%; scalar code bounds the gains (Amdahl)")
	return t, nil
}

func pow(x, y float64) float64 { return math.Pow(x, y) }

// Prices and catalogue of the economics study. They are constants,
// not flags: the table answers one question at one stated price point.
const (
	// Object storage, standard tier (public-cloud list price).
	storageUSDPerGBMonth = 0.02
	// On-demand compute (public-cloud list price per vCPU-hour).
	cpuUSDPerHour = 0.05
	// CDN egress (public-cloud list price at the highest-volume tier).
	egressUSDPerGB = 0.02
	// Catalogue the break-even thresholds are read against as ranks:
	// ten requests per video per day, a video-sharing site's order of
	// magnitude.
	econVideos         = 1_000_000
	econRequestsPerDay = 10_000_000
)

// prices are the three unit costs the economics study trades.
type prices struct {
	cpuPerSecond, storagePerByteSecond, egressPerByte float64
}

var listPrices = prices{
	cpuPerSecond:         cpuUSDPerHour / 3600,
	storagePerByteSecond: storageUSDPerGBMonth / 1e9 / (30 * 24 * 3600),
	egressPerByte:        egressUSDPerGB / 1e9,
}

// rendition is one stored copy of a clip per second of video at the
// clip's native resolution.
type rendition struct {
	bytes, cpuSeconds, psnr float64
}

// nativeRendition undoes the per-pixel normalisation of a measurement
// at the clip's native size: B bits/pixel/s is B·W·H/8 bytes per
// second, and S Mpixel/s spends W·H·fps/(S·10⁶) CPU-seconds per second.
func nativeRendition(c corpus.Clip, m scoring.Measurement) rendition {
	px := float64(c.Width * c.Height)
	return rendition{bytes: m.BitratePPS * px / 8, cpuSeconds: px * c.FrameRate / (m.SpeedMPS * 1e6), psnr: m.PSNR}
}

// breakEven prices the two decisions the economics study tabulates.
// views is how many playbacks the Popular re-transcode needs before
// its egress saving repays its compute; ok is false when the Popular
// copy is not smaller at no worse PSNR, so it never repays. evictAfter
// is the request interval in seconds past which storing the VOD copy
// costs more than re-transcoding it on the next request.
func (p prices) breakEven(vod, pop rendition) (views float64, ok bool, evictAfter float64) {
	evictAfter = vod.cpuSeconds * p.cpuPerSecond / (vod.bytes * p.storagePerByteSecond)
	saved := vod.bytes - pop.bytes
	if saved <= 0 || pop.psnr < vod.psnr {
		return 0, false, evictAfter
	}
	return pop.cpuSeconds * p.cpuPerSecond / (saved * p.egressPerByte), true, evictAfter
}

// EconomicsStudy prices the Section 2.5 trade per clip from the
// encodes' own modelled seconds: keep the VOD rendition, re-transcode
// it once at Popular effort (x265 veryslow, two-pass at the same
// target bitrate) to cut egress, or evict it and re-transcode on
// demand. Both break-even thresholds are closed-form (breakEven).
func (r *Runner) EconomicsStudy() (*tables.Table, error) {
	clips := corpus.VBenchClips()
	type cell struct{ vod, pop rendition }
	cells := make([]cell, len(clips))
	err := r.pool().ForEach(len(clips), func(i int) error {
		c := clips[i]
		vod, err := r.Reference(scoring.VOD, c)
		if err != nil {
			return err
		}
		seq, err := r.Sequence(c)
		if err != nil {
			return err
		}
		target, err := r.TargetBitrate(c)
		if err != nil {
			return err
		}
		pop, err := r.Measure(profiles.X265(codec.PresetVerySlow), seq, codec.Config{RC: codec.RCTwoPass, BitrateBPS: target})
		if err != nil {
			return fmt.Errorf("economics %s: %w", c.Name, err)
		}
		cells[i] = cell{nativeRendition(c, vod.Measurement), nativeRendition(c, pop.Measurement)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := tables.New("Economics: Popular re-transcode and retention break-even, per second of native video",
		"clip", "VOD KB", "VOD CPU-s", "Pop KB", "Pop CPU-s", "Pop dPSNR", "Pop pays after views", "evict if idle > days")
	daily := dailyRequests()
	popRanks, keepRanks := newRankRange(), newRankRange()
	for i, c := range clips {
		vod, pop := cells[i].vod, cells[i].pop
		views, ok, evictAfter := listPrices.breakEven(vod, pop)
		viewsCell := "—"
		if ok {
			viewsCell = tables.FormatFloat(views)
			popRanks.add(deepestRank(daily, views), c.Name)
		}
		keepRanks.add(deepestRank(daily, 86400/evictAfter), c.Name)
		t.AddRowf(c.Name, vod.bytes/1e3, vod.cpuSeconds, pop.bytes/1e3, pop.cpuSeconds, pop.psnr-vod.psnr, viewsCell, evictAfter/86400)
	}
	t.AddNote("$%.2f/CPU-h, $%.2f/GB-month stored, $%.2f/GB egress; Pop = x265 veryslow two-pass at the VOD target, valid only if smaller at no worse PSNR",
		cpuUSDPerHour, storageUSDPerGBMonth, egressUSDPerGB)
	t.AddNote("as ranks of %d videos at %d requests/day (DefaultPopularity): the Popular pass repays within a day down to rank %s; keeping the VOD copy beats eviction down to rank %s",
		econVideos, econRequestsPerDay, popRanks, keepRanks)
	return t, nil
}

// dailyRequests returns the requests per day of every rank of the
// economics catalogue under corpus.DefaultPopularity, most popular
// first (non-increasing).
func dailyRequests() []float64 {
	m := corpus.DefaultPopularity()
	daily := make([]float64, econVideos)
	var total float64
	for i := range daily {
		daily[i] = m.Weight(i + 1)
		total += daily[i]
	}
	for i := range daily {
		daily[i] *= econRequestsPerDay / total
	}
	return daily
}

// deepestRank returns the deepest rank whose daily requests reach
// perDay (0 if even rank 1 falls short).
func deepestRank(daily []float64, perDay float64) int {
	return sort.Search(len(daily), func(i int) bool { return daily[i] < perDay })
}

// rankRange is the span of deepestRank over clips, for the table note.
type rankRange struct {
	lo, hi         int
	loClip, hiClip string
}

func newRankRange() *rankRange { return &rankRange{lo: math.MaxInt} }

func (g *rankRange) add(rank int, clip string) {
	if rank < g.lo {
		g.lo, g.loClip = rank, clip
	}
	if rank > g.hi {
		g.hi, g.hiClip = rank, clip
	}
}

func (g *rankRange) String() string {
	if g.hiClip == "" {
		return "none"
	}
	return fmt.Sprintf("%d (%s) to %d (%s)", g.lo, g.loClip, g.hi, g.hiClip)
}
