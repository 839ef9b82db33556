package codec

import (
	"errors"

	"vbench/internal/codec/bitstream"
)

// Context sets of the macroblock-layer syntax. Each set owns a small
// bank of adaptive contexts in the arithmetic backend; the Golomb
// backend ignores them. The layout is part of the bitstream
// definition: encoder and decoder must index identically.
const (
	ctxSkip = iota
	ctxIntraFlag
	ctxLumaMode
	ctxLumaMode4
	ctxChromaMode
	ctxRefIdx
	ctxMVD
	ctxTx8
	ctxQPDelta
	ctxCBPLuma
	ctxCBPChroma
	ctxBlkFlag
	ctxRun
	ctxRunMid
	ctxRunTail
	ctxLevel
	ctxLevelMid
	ctxLevelTail
	ctxLast
	numCtxSets
)

// ctxBankSize is the number of adaptive contexts per set; unary
// prefixes use successive contexts and share the final one.
const ctxBankSize = 6

// maxUnaryPrefix caps the context-coded unary prefix before switching
// to bypass Exp-Golomb, as in CABAC's UEGk binarization.
const maxUnaryPrefix = 10

// seMap folds a signed value into the unsigned Exp-Golomb index:
// 0→0, 1→1, −1→2, 2→3, …
func seMap(v int32) uint32 {
	if v > 0 {
		return uint32(v)*2 - 1
	}
	return uint32(-v) * 2
}

// seUnmap inverts seMap.
func seUnmap(u uint32) int32 {
	if u%2 == 1 {
		return int32(u/2 + 1)
	}
	return -int32(u / 2)
}

// symWriter is the symbol-level serialization interface the macroblock
// layer writes through. Two implementations exist: golombWriter
// (plain variable-length codes) and arithWriter (adaptive binary
// arithmetic coding). Bins counts coded binary decisions for the
// entropy-kernel work accounting.
type symWriter interface {
	Bit(set int, bit int)
	Bypass(bit int)
	UE(set int, v uint32)
	SE(set int, v int32)
	BitLen() int
	Bins() int64
	Flush() []byte
}

// symReader mirrors symWriter on the decode side. Overread reports a
// reader that has run past its payload: the golomb reader's reads fail
// there already, while the arithmetic decoder goes on decoding zeros,
// so the slice decoder asks once per macroblock.
type symReader interface {
	Bit(set int) (int, error)
	Bypass() (int, error)
	UE(set int) (uint32, error)
	SE(set int) (int32, error)
	Bins() int64
	Overread() bool
}

// golombWriter implements symWriter over a plain bit writer.
type golombWriter struct {
	w    *bitstream.BitWriter
	bins int64
}

func newGolombWriter() *golombWriter {
	return &golombWriter{w: bitstream.NewBitWriter()}
}

func (g *golombWriter) Bit(_ int, bit int) {
	g.w.WriteBit(bit)
	g.bins++
}

func (g *golombWriter) Bypass(bit int) {
	g.w.WriteBit(bit)
	g.bins++
}

func (g *golombWriter) UE(_ int, v uint32) {
	g.w.WriteUE(v)
	g.bins += int64(bitstream.UEBits(v))
}

func (g *golombWriter) SE(_ int, v int32) {
	g.w.WriteSE(v)
	g.bins += int64(bitstream.SEBits(v))
}

func (g *golombWriter) BitLen() int   { return g.w.BitLen() }
func (g *golombWriter) Bins() int64   { return g.bins }
func (g *golombWriter) Flush() []byte { return g.w.Bytes() }

// golombReader implements symReader over a plain bit reader.
type golombReader struct {
	r    *bitstream.BitReader
	bins int64
}

func newGolombReader(data []byte) *golombReader {
	return &golombReader{r: bitstream.NewBitReader(data)}
}

func (g *golombReader) Bit(_ int) (int, error) {
	g.bins++
	return g.r.ReadBit()
}

func (g *golombReader) Bypass() (int, error) {
	g.bins++
	return g.r.ReadBit()
}

func (g *golombReader) UE(_ int) (uint32, error) {
	v, err := g.r.ReadUE()
	if err == nil {
		g.bins += int64(bitstream.UEBits(v))
	}
	return v, err
}

func (g *golombReader) SE(_ int) (int32, error) {
	v, err := g.r.ReadSE()
	if err == nil {
		g.bins += int64(bitstream.SEBits(v))
	}
	return v, err
}

func (g *golombReader) Bins() int64    { return g.bins }
func (g *golombReader) Overread() bool { return false }

// arithWriter implements symWriter over the adaptive arithmetic coder.
type arithWriter struct {
	e    *bitstream.ArithEncoder
	ctx  [numCtxSets][ctxBankSize]bitstream.Context
	bins int64
}

func newArithWriter() *arithWriter {
	w := &arithWriter{e: bitstream.NewArithEncoder()}
	for i := range w.ctx {
		bitstream.InitContexts(w.ctx[i][:])
	}
	return w
}

func (a *arithWriter) Bit(set int, bit int) {
	a.e.EncodeCtx(bit, &a.ctx[set][0])
	a.bins++
}

func (a *arithWriter) Bypass(bit int) {
	a.e.EncodeBypass(bit)
	a.bins++
}

func (a *arithWriter) UE(set int, v uint32) {
	a.e.EncodeUnaryGolomb(v, a.ctx[set][:], maxUnaryPrefix, 1)
	a.bins += int64(bitstream.UEBits(v)) // bin-count proxy
}

func (a *arithWriter) SE(set int, v int32) { a.UE(set, seMap(v)) }

func (a *arithWriter) BitLen() int   { return a.e.BitsEstimate() }
func (a *arithWriter) Bins() int64   { return a.bins }
func (a *arithWriter) Flush() []byte { return a.e.Bytes() }

// arithReader implements symReader over the adaptive arithmetic coder.
type arithReader struct {
	d    *bitstream.ArithDecoder
	ctx  [numCtxSets][ctxBankSize]bitstream.Context
	bins int64
}

func newArithReader(data []byte) *arithReader {
	r := &arithReader{d: bitstream.NewArithDecoder(data)}
	for i := range r.ctx {
		bitstream.InitContexts(r.ctx[i][:])
	}
	return r
}

func (a *arithReader) Bit(set int) (int, error) {
	a.bins++
	return a.d.DecodeCtx(&a.ctx[set][0]), nil
}

func (a *arithReader) Bypass() (int, error) {
	a.bins++
	return a.d.DecodeBypass(), nil
}

func (a *arithReader) UE(set int) (uint32, error) {
	v := a.d.DecodeUnaryGolomb(a.ctx[set][:], maxUnaryPrefix, 1)
	if v == bitstream.MalformedUnaryGolomb {
		return 0, errors.New("codec: malformed arithmetic-coded integer")
	}
	a.bins += int64(bitstream.UEBits(v))
	return v, nil
}

func (a *arithReader) SE(set int) (int32, error) {
	u, err := a.UE(set)
	return seUnmap(u), err
}

func (a *arithReader) Bins() int64    { return a.bins }
func (a *arithReader) Overread() bool { return a.d.Overread() }

// runCtxSet and levelCtxSet select position-adaptive context sets for
// residual coding. With RichContexts the choice depends on the zigzag
// position (HEVC-style); otherwise a single set is shared.
func runCtxSet(rich bool, pos int) int {
	if !rich {
		return ctxRun
	}
	switch {
	case pos == 0:
		return ctxRun
	case pos < 4:
		return ctxRunMid
	default:
		return ctxRunTail
	}
}

func levelCtxSet(rich bool, pos int) int {
	if !rich {
		return ctxLevel
	}
	switch {
	case pos == 0:
		return ctxLevel
	case pos < 4:
		return ctxLevelMid
	default:
		return ctxLevelTail
	}
}
