package bitstream

// Adaptive binary arithmetic coder following the boolean coder of
// RFC 6386 (VP8). A probability is an 8-bit value p in [1, 255] giving
// the chance the coded bit is 0, scaled by 256. The encoder and
// decoder below are exact mirrors: every sequence of (bit, prob)
// operations on the encoder decodes back identically.

import "math"

// normShift[r] is the number of left shifts needed to bring a range
// value r (1..255) up to at least 128.
var normShift [256]uint8

func init() {
	for r := 1; r < 256; r++ {
		s := uint8(0)
		v := r
		for v < 128 {
			v <<= 1
			s++
		}
		normShift[r] = s
	}
}

// ArithEncoder is the encoding half of the boolean coder.
type ArithEncoder struct {
	buf      []byte
	lowValue uint32
	rng      uint32
	count    int
}

// NewArithEncoder returns a ready encoder.
func NewArithEncoder() *ArithEncoder {
	return &ArithEncoder{rng: 255, count: -24}
}

// EncodeBit codes one bit with probability prob (chance ×256 that the
// bit is 0). prob must be in [1, 255].
func (e *ArithEncoder) EncodeBit(bit int, prob uint8) {
	split := 1 + ((e.rng-1)*uint32(prob))>>8
	if bit != 0 {
		e.lowValue += split
		e.rng -= split
	} else {
		e.rng = split
	}
	shift := uint32(normShift[e.rng])
	e.rng <<= shift
	e.count += int(shift)
	if e.count >= 0 {
		offset := shift - uint32(e.count)
		if (e.lowValue<<(offset-1))&0x80000000 != 0 {
			// Carry propagation into already-emitted bytes.
			x := len(e.buf) - 1
			for x >= 0 && e.buf[x] == 0xFF {
				e.buf[x] = 0
				x--
			}
			if x >= 0 {
				e.buf[x]++
			} else {
				// A carry out of the first byte: prepend 0x01. This
				// cannot happen with the standard init (first byte is
				// always < 0xFF after the first emit), but guard anyway.
				e.buf = append([]byte{1}, e.buf...)
			}
		}
		e.buf = append(e.buf, byte(e.lowValue>>(24-offset)))
		e.lowValue <<= offset
		shift = uint32(e.count)
		e.lowValue &= 0xFFFFFF
		e.count -= 8
	}
	e.lowValue <<= shift
}

// EncodeBypass codes a bit with a flat 1/2 probability. Bypass bins
// model sign and suffix bits that carry no modelable statistics.
func (e *ArithEncoder) EncodeBypass(bit int) { e.EncodeBit(bit, 128) }

// EncodeBypassBits codes the n low-order bits of v MSB-first in bypass
// mode.
func (e *ArithEncoder) EncodeBypassBits(v uint32, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		e.EncodeBypass(int(v>>uint(i)) & 1)
	}
}

// Bytes terminates the stream and returns the coded bytes. The encoder
// must not be used afterwards.
func (e *ArithEncoder) Bytes() []byte {
	for i := 0; i < 32; i++ {
		e.EncodeBit(0, 128)
	}
	return e.buf
}

// BitsEstimate returns the current compressed size in bits (exact for
// emitted bytes, plus pending state), useful for rate estimation.
func (e *ArithEncoder) BitsEstimate() int { return len(e.buf)*8 + 24 + e.count }

// ArithDecoder is the decoding half of the boolean coder.
type ArithDecoder struct {
	buf      []byte
	pos      int
	value    uint32 // 16-bit coding window
	rng      uint32
	bitCount int
	overread bool
}

// NewArithDecoder returns a decoder over data produced by
// ArithEncoder.Bytes.
func NewArithDecoder(data []byte) *ArithDecoder {
	d := &ArithDecoder{buf: data, rng: 255}
	d.value = uint32(d.nextByte())<<8 | uint32(d.nextByte())
	return d
}

// nextByte feeds the coding window. Past the end of the data it
// shifts in zeros and records the overread.
func (d *ArithDecoder) nextByte() byte {
	if d.pos < len(d.buf) {
		b := d.buf[d.pos]
		d.pos++
		return b
	}
	d.overread = true
	return 0
}

// Overread reports whether the decoder has needed a byte past the end
// of its data. Decoding the bits of a stream from ArithEncoder.Bytes
// never does once at least one bit was coded: the 32 terminating bits
// cover the 16-bit window. So once it is set, every further bit is
// made up, and a caller that decodes untrusted data stops there
// instead of decoding zeros forever.
func (d *ArithDecoder) Overread() bool { return d.overread }

// DecodeBit decodes one bit previously coded with probability prob.
func (d *ArithDecoder) DecodeBit(prob uint8) int {
	split := 1 + ((d.rng-1)*uint32(prob))>>8
	bigSplit := split << 8
	var bit int
	if d.value >= bigSplit {
		bit = 1
		d.rng -= split
		d.value -= bigSplit
	} else {
		bit = 0
		d.rng = split
	}
	for d.rng < 128 {
		d.value <<= 1
		d.rng <<= 1
		d.bitCount++
		if d.bitCount == 8 {
			d.bitCount = 0
			d.value |= uint32(d.nextByte())
		}
	}
	return bit
}

// DecodeBypass decodes a bypass-coded bit.
func (d *ArithDecoder) DecodeBypass() int { return d.DecodeBit(128) }

// DecodeBypassBits decodes n bypass bits MSB-first.
func (d *ArithDecoder) DecodeBypassBits(n uint) uint32 {
	var v uint32
	for i := uint(0); i < n; i++ {
		v = v<<1 | uint32(d.DecodeBypass())
	}
	return v
}

// Context is an adaptive binary probability model. The zero value is
// NOT valid; use NewContext or InitContexts.
type Context struct {
	p uint8 // probability that the next bit is 0, ×256
}

// adaptRate controls how quickly contexts learn; 1/2^adaptRate of the
// error is corrected per observation (CABAC uses a comparable window).
const adaptRate = 4

// NewContext returns a context initialized to the neutral probability.
func NewContext() Context { return Context{p: 128} }

// InitContexts fills a slice with neutral contexts.
func InitContexts(cs []Context) {
	for i := range cs {
		cs[i] = NewContext()
	}
}

// Prob returns the context's current probability of a zero bit.
func (c *Context) Prob() uint8 { return c.p }

// Update adapts the context after observing bit.
func (c *Context) Update(bit int) {
	if bit == 0 {
		c.p += (255 - c.p) >> adaptRate
	} else {
		c.p -= c.p >> adaptRate
	}
	if c.p < 1 {
		c.p = 1
	}
}

// EncodeCtx codes bit with the context's probability and adapts it.
func (e *ArithEncoder) EncodeCtx(bit int, c *Context) {
	e.EncodeBit(bit, c.p)
	c.Update(bit)
}

// DecodeCtx decodes a bit with the context's probability and adapts it.
func (d *ArithDecoder) DecodeCtx(c *Context) int {
	bit := d.DecodeBit(c.p)
	c.Update(bit)
	return bit
}

// EncodeUnaryGolomb codes a non-negative integer as a context-modeled
// unary prefix (up to maxPrefix ones) followed, if the value saturates
// the prefix, by a bypass Exp-Golomb suffix of order k. This mirrors
// CABAC's UEG coefficient binarization.
func (e *ArithEncoder) EncodeUnaryGolomb(v uint32, ctxs []Context, maxPrefix int, k uint) {
	i := 0
	for ; i < maxPrefix && uint32(i) < v; i++ {
		e.EncodeCtx(1, ctxCap(ctxs, i))
	}
	if uint32(i) == v && i < maxPrefix {
		e.EncodeCtx(0, ctxCap(ctxs, i))
		return
	}
	// Saturated prefix: code the excess with order-k Exp-Golomb in
	// bypass mode.
	rem := v - uint32(maxPrefix)
	for {
		if rem >= 1<<k {
			e.EncodeBypass(1)
			rem -= 1 << k
			k++
		} else {
			e.EncodeBypass(0)
			e.EncodeBypassBits(rem, k)
			return
		}
	}
}

// MalformedUnaryGolomb is what DecodeUnaryGolomb returns for an escape
// longer than any uint32 needs. Only corrupt input decodes to it: a
// decoder whose window has left the coding range reads 1 bits forever.
const MalformedUnaryGolomb = math.MaxUint32

// DecodeUnaryGolomb mirrors EncodeUnaryGolomb.
func (d *ArithDecoder) DecodeUnaryGolomb(ctxs []Context, maxPrefix int, k uint) uint32 {
	var v uint32
	i := 0
	for ; i < maxPrefix; i++ {
		if d.DecodeCtx(ctxCap(ctxs, i)) == 0 {
			return v
		}
		v++
	}
	var excess uint32
	for d.DecodeBypass() == 1 {
		excess += 1 << k
		k++
		if k >= 32 {
			return MalformedUnaryGolomb
		}
	}
	excess += d.DecodeBypassBits(k)
	return uint32(maxPrefix) + excess
}

// ctxCap indexes into a context slice, clamping to the last element so
// long unary strings share a tail context.
func ctxCap(ctxs []Context, i int) *Context {
	if i >= len(ctxs) {
		i = len(ctxs) - 1
	}
	return &ctxs[i]
}
