package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"vbench/internal/codec"
	"vbench/internal/codec/profiles"
	"vbench/internal/corpus"
	"vbench/internal/metrics"
	"vbench/internal/perf"
	"vbench/internal/video"
)

// encOp is one direct encode of the op list.
type encOp struct {
	label string
	seq   *video.Sequence
	eng   *codec.Engine
	cfg   codec.Config
	// Fixed by the first cycle: what every later encode of this op
	// must reproduce.
	sha     [sha256.Size]byte
	bitrate float64
	psnr    float64
}

// encodeInst runs direct codec encodes: the two encode workloads and
// the codec probe differ only in their op lists.
type encodeInst struct {
	e *env
	// main ops in their fixed listing order, and aux ops, one per main
	// op: the same clip encoded the other way. aux is empty when the
	// aux ops are decodes of the main bitstreams.
	main, aux []*encOp
	// order is the seed's permutation of the op indices: the order a
	// cycle runs them in. Every seed runs the same multiset of ops, so
	// neither the work of a cycle nor the quality means depend on it.
	order    []int
	recorded bool
}

// genClip synthesises one corpus clip inside a span.
func genClip(parent *span, name string, scale int, seconds float64) (*video.Sequence, error) {
	clip, err := corpus.ClipByName(name)
	if err != nil {
		return nil, err
	}
	var seq *video.Sequence
	timed(parent, "video.generate", func() { seq, err = clip.Generate(scale, seconds) })
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", name, err)
	}
	return seq, nil
}

// buildEncodeSerial: x264-medium encodes of three clips spanning the
// entropy range (desktop 0.2, girl 5.9, holi 7.0 bit/pixel/s) at
// scale 8, one second, each at constant QP and at a target bitrate,
// plus one two-pass; strictly serial rows and one slice. The aux ops
// decode each bitstream just produced.
func buildEncodeSerial(e *env, sp *span) (instance, error) {
	in := &encodeInst{e: e}
	eng := profiles.X264(codec.PresetMedium)
	for _, c := range []struct {
		name string
		abr  float64 // target bitrate near what QP 28 produces
	}{{"desktop", 40e3}, {"girl", 120e3}, {"holi", 160e3}} {
		seq, err := genClip(sp, c.name, e.scale(8), 1)
		if err != nil {
			return nil, err
		}
		in.main = append(in.main,
			&encOp{label: c.name + "/cqp28", seq: seq, eng: eng, cfg: codec.Config{RC: codec.RCConstQP, QP: 28, Slices: 1, RowsParallel: 1}},
			&encOp{label: c.name + "/abr", seq: seq, eng: eng, cfg: codec.Config{RC: codec.RCBitrate, BitrateBPS: c.abr, Slices: 1, RowsParallel: 1}},
		)
		if c.name == "girl" {
			in.main = append(in.main, &encOp{label: c.name + "/2pass", seq: seq, eng: eng, cfg: codec.Config{RC: codec.RCTwoPass, BitrateBPS: c.abr, Slices: 1, RowsParallel: 1}})
		}
	}
	in.order = e.order(len(in.main))
	return in, nil
}

// lanes is the intra-frame parallelism the wavefront workload asks
// for: one lane per core, at least the two the codec needs to leave
// its serial path, at most its limit.
func lanes(nproc int) int { return min(max(nproc, 2), 64) }

// buildEncodeWavefront: three 1080p-class clips (presentation 0.2,
// house 3.6, hall 7.7 bit/pixel/s) at scale 6, half a second. Main
// encodes with one wavefront row lane per core; aux encodes the same
// clips with one slice per core and serial rows — the two intra-frame
// schemes side by side.
func buildEncodeWavefront(e *env, sp *span) (instance, error) {
	in := &encodeInst{e: e}
	eng := profiles.X264(codec.PresetMedium)
	n := lanes(e.nproc)
	for _, name := range []string{"presentation", "house", "hall"} {
		seq, err := genClip(sp, name, e.scale(6), 0.5)
		if err != nil {
			return nil, err
		}
		in.main = append(in.main, &encOp{label: name + "/rows", seq: seq, eng: eng, cfg: codec.Config{RC: codec.RCConstQP, QP: 28, Slices: 1, RowsParallel: n}})
		in.aux = append(in.aux, &encOp{label: name + "/slices", seq: seq, eng: eng, cfg: codec.Config{RC: codec.RCConstQP, QP: 28, Slices: n, RowsParallel: 1}})
	}
	in.order = e.order(len(in.main))
	return in, nil
}

// encode runs one op inside a span and counts its work.
func (in *encodeInst) encode(parent *span, op *encOp) (*codec.Result, time.Duration, error) {
	var res *codec.Result
	var err error
	d := timed(parent, "codec.encode", func() { res, err = op.eng.Encode(op.seq, op.cfg) })
	if err == nil {
		in.e.obs.add("codec.mb", float64(res.Counters.MBTotal))
		in.e.obs.add("codec.mb_skip", float64(res.Counters.MBSkip))
		in.e.obs.add("codec.sad_ops", float64(res.Counters.Ops[perf.KSAD]))
		in.e.obs.add("codec.encode_busy_ms", ms(d))
	}
	return res, d, err
}

func (in *encodeInst) cycle(cy *cycle) {
	type done struct {
		op  *encOp
		res *codec.Result
		dec *video.Sequence
	}
	var outs []done

	mainSp := cy.sp.child("bench.main")
	for _, i := range in.order {
		op := in.main[i]
		res, d, err := in.encode(mainSp, op)
		cy.main += d
		if err != nil {
			cy.tally.fail("%s: encode: %v", op.label, err)
			continue
		}
		cy.pix += op.seq.PixelCount()
		outs = append(outs, done{op: op, res: res})
	}
	mainSp.finish()

	auxSp := cy.sp.child("bench.aux")
	if len(in.aux) == 0 {
		for i := range outs {
			o := &outs[i]
			var err error
			cy.aux += timed(auxSp, "codec.decode", func() { o.dec, _, err = codec.Decode(o.res.Bitstream) })
			if err != nil {
				cy.tally.fail("%s: decode: %v", o.op.label, err)
			}
		}
	}
	for _, i := range in.order[:len(in.aux)] {
		op := in.aux[i]
		res, d, err := in.encode(auxSp, op)
		cy.aux += d
		if err != nil {
			cy.tally.fail("%s: encode: %v", op.label, err)
			continue
		}
		outs = append(outs, done{op: op, res: res})
	}
	auxSp.finish()

	// Untimed: every bitstream must be the one the first cycle
	// produced, and must decode to the encoder's own reconstruction.
	verSp := cy.sp.child("bench.verify")
	for i := range outs {
		o := &outs[i]
		if o.dec == nil {
			var err error
			timed(verSp, "codec.decode", func() { o.dec, _, err = codec.Decode(o.res.Bitstream) })
			if err != nil {
				cy.tally.fail("%s: decode: %v", o.op.label, err)
				continue
			}
		}
		in.verify(verSp, cy, o.op, o.res, o.dec)
	}
	verSp.finish()
	in.recorded = true
}

func (in *encodeInst) verify(parent *span, cy *cycle, op *encOp, res *codec.Result, dec *video.Sequence) {
	sha := sha256.Sum256(res.Bitstream)
	if !in.recorded {
		op.sha = sha
		var err error
		op.bitrate, err = metrics.Bitrate(int64(len(res.Bitstream)), op.seq.Width(), op.seq.Height(), op.seq.Duration())
		if err != nil {
			cy.tally.fail("%s: bitrate: %v", op.label, err)
			return
		}
		timed(parent, "metrics.psnr", func() { op.psnr, err = metrics.SequencePSNR(op.seq, res.Recon) })
		if err != nil {
			cy.tally.fail("%s: psnr: %v", op.label, err)
			return
		}
	}
	if !cy.tally.check(sha == op.sha, "%s: bitstream differs from the first cycle's", op.label) {
		return
	}
	same := dec != nil && len(dec.Frames) == len(res.Recon.Frames)
	for i := 0; same && i < len(dec.Frames); i++ {
		same = dec.Frames[i].Equal(res.Recon.Frames[i])
	}
	cy.tally.check(same, "%s: decode differs from the encoder's reconstruction", op.label)
}

func (in *encodeInst) quality() (float64, float64) {
	var b, p float64
	ops := append(append([]*encOp(nil), in.main...), in.aux...)
	for _, op := range ops {
		b += op.bitrate
		p += op.psnr
	}
	return b / float64(len(ops)), p / float64(len(ops))
}

func (in *encodeInst) close() error { return nil }
