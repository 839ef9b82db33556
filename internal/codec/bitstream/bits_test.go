package bitstream

import (
	"testing"
	"testing/quick"

	"vbench/internal/rng"
)

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := NewBitWriter()
	pattern := []int{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewBitReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestWriteBitsReadBitsProperty(t *testing.T) {
	f := func(values []uint32) bool {
		w := NewBitWriter()
		widths := make([]uint, len(values))
		for i, v := range values {
			n := uint(1)
			for ; n < 32 && v>>n != 0; n++ {
			}
			widths[i] = n
			w.WriteBits(v&(1<<n-1), n)
		}
		r := NewBitReader(w.Bytes())
		for i, v := range values {
			got, err := r.ReadBits(widths[i])
			if err != nil {
				return false
			}
			if got != v&(1<<widths[i]-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitLenTracksWrites(t *testing.T) {
	w := NewBitWriter()
	if w.BitLen() != 0 {
		t.Fatalf("fresh writer BitLen = %d", w.BitLen())
	}
	w.WriteBits(0x3, 2)
	if w.BitLen() != 2 {
		t.Errorf("BitLen after 2 bits = %d", w.BitLen())
	}
	w.WriteBits(0xFF, 8)
	if w.BitLen() != 10 {
		t.Errorf("BitLen after 10 bits = %d", w.BitLen())
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewBitReader([]byte{0xAB})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("reading available bits: %v", err)
	}
	if _, err := r.ReadBit(); err != ErrUnderflow {
		t.Errorf("expected ErrUnderflow, got %v", err)
	}
}

func TestUESmallValues(t *testing.T) {
	// Canonical H.264 ue(v) codes.
	cases := []struct {
		v    uint32
		bits string
	}{
		{0, "1"},
		{1, "010"},
		{2, "011"},
		{3, "00100"},
		{4, "00101"},
		{5, "00110"},
		{6, "00111"},
		{7, "0001000"},
	}
	for _, c := range cases {
		w := NewBitWriter()
		w.WriteUE(c.v)
		if got := w.BitLen(); got != len(c.bits) {
			t.Errorf("ue(%d) length = %d bits, want %d", c.v, got, len(c.bits))
		}
		r := NewBitReader(w.Bytes())
		var s []byte
		for range c.bits {
			b, err := r.ReadBit()
			if err != nil {
				t.Fatal(err)
			}
			s = append(s, byte('0'+b))
		}
		if string(s) != c.bits {
			t.Errorf("ue(%d) = %s, want %s", c.v, s, c.bits)
		}
	}
}

func TestUERoundTripProperty(t *testing.T) {
	f := func(vs []uint32) bool {
		w := NewBitWriter()
		for _, v := range vs {
			w.WriteUE(v % (1 << 24))
		}
		r := NewBitReader(w.Bytes())
		for _, v := range vs {
			got, err := r.ReadUE()
			if err != nil || got != v%(1<<24) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSERoundTripProperty(t *testing.T) {
	f := func(vs []int32) bool {
		w := NewBitWriter()
		for _, v := range vs {
			w.WriteSE(v % (1 << 20))
		}
		r := NewBitReader(w.Bytes())
		for _, v := range vs {
			got, err := r.ReadSE()
			if err != nil || got != v%(1<<20) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUEBitsMatchesActual(t *testing.T) {
	for v := uint32(0); v < 1000; v++ {
		w := NewBitWriter()
		w.WriteUE(v)
		if got := UEBits(v); got != w.BitLen() {
			t.Fatalf("UEBits(%d) = %d, actual %d", v, got, w.BitLen())
		}
	}
}

func TestSEBitsMatchesActual(t *testing.T) {
	for v := int32(-500); v < 500; v++ {
		w := NewBitWriter()
		w.WriteSE(v)
		if got := SEBits(v); got != w.BitLen() {
			t.Fatalf("SEBits(%d) = %d, actual %d", v, got, w.BitLen())
		}
	}
}

func TestArithRoundTripFixedProb(t *testing.T) {
	r := rng.New(99)
	for _, prob := range []uint8{1, 32, 128, 200, 255} {
		bits := make([]int, 4000)
		for i := range bits {
			if r.Float64()*256 > float64(prob) {
				bits[i] = 1
			}
		}
		e := NewArithEncoder()
		for _, b := range bits {
			e.EncodeBit(b, prob)
		}
		data := e.Bytes()
		d := NewArithDecoder(data)
		for i, want := range bits {
			if got := d.DecodeBit(prob); got != want {
				t.Fatalf("prob %d: bit %d decoded %d want %d", prob, i, got, want)
			}
		}
	}
}

func TestArithCompressesSkewedStreams(t *testing.T) {
	// A heavily skewed stream must compress well below 1 bit/bin.
	const n = 8000
	e := NewArithEncoder()
	r := rng.New(1)
	ones := 0
	for i := 0; i < n; i++ {
		bit := 0
		if r.Float64() < 0.02 {
			bit = 1
			ones++
		}
		e.EncodeBit(bit, 250) // model close to the true distribution
	}
	data := e.Bytes()
	// Entropy of p=0.02 is ~0.14 bits; allow generous slack plus the
	// 4-byte flush tail.
	maxBytes := n/4/8 + 8
	if len(data) > maxBytes {
		t.Errorf("skewed stream compressed to %d bytes, want <= %d (ones=%d)", len(data), maxBytes, ones)
	}
}

func TestArithBypassRoundTrip(t *testing.T) {
	e := NewArithEncoder()
	vals := []uint32{0, 1, 5, 255, 1023, 0xFFFF}
	widths := []uint{1, 2, 4, 8, 10, 16}
	for i, v := range vals {
		e.EncodeBypassBits(v, widths[i])
	}
	d := NewArithDecoder(e.Bytes())
	for i, v := range vals {
		if got := d.DecodeBypassBits(widths[i]); got != v {
			t.Fatalf("bypass value %d: got %d want %d", i, got, v)
		}
	}
}

func TestArithContextRoundTripProperty(t *testing.T) {
	f := func(seed uint64, raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		// Derive a bit stream and a context-id stream from raw bytes.
		bits := make([]int, 0, len(raw)*8)
		ctxIDs := make([]int, 0, len(raw)*8)
		for _, b := range raw {
			for k := 0; k < 8; k++ {
				bits = append(bits, int(b>>k)&1)
				ctxIDs = append(ctxIDs, (int(b)+k)%4)
			}
		}
		encCtx := make([]Context, 4)
		InitContexts(encCtx)
		e := NewArithEncoder()
		for i, b := range bits {
			e.EncodeCtx(b, &encCtx[ctxIDs[i]])
		}
		decCtx := make([]Context, 4)
		InitContexts(decCtx)
		d := NewArithDecoder(e.Bytes())
		for i := range bits {
			if d.DecodeCtx(&decCtx[ctxIDs[i]]) != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestArithDecodeNeverOverreads: decoding exactly the bits that were
// coded, with their probabilities, never needs a byte past the end of
// ArithEncoder.Bytes, whatever the bits and probabilities. Decoders of
// untrusted streams rely on this to reject any overread as corrupt.
func TestArithDecodeNeverOverreads(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(2000)
		bits := make([]int, n)
		probs := make([]uint8, n)
		for i := range bits {
			probs[i] = uint8(1 + r.Intn(255))
			// Half the bits follow their probability, so long
			// runs of extreme, cheap bins occur too.
			if r.Intn(2) == 0 {
				bits[i] = r.Intn(2)
			} else if r.Intn(256) >= int(probs[i]) {
				bits[i] = 1
			}
		}
		e := NewArithEncoder()
		for i, b := range bits {
			e.EncodeBit(b, probs[i])
		}
		d := NewArithDecoder(e.Bytes())
		for i, b := range bits {
			if d.DecodeBit(probs[i]) != b || d.Overread() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUnaryGolombRoundTrip(t *testing.T) {
	vals := []uint32{0, 1, 2, 3, 5, 14, 15, 16, 100, 1000, 100000}
	for _, maxPrefix := range []int{1, 4, 14} {
		for _, k := range []uint{0, 1, 3} {
			encCtx := make([]Context, 5)
			InitContexts(encCtx)
			e := NewArithEncoder()
			for _, v := range vals {
				e.EncodeUnaryGolomb(v, encCtx, maxPrefix, k)
			}
			decCtx := make([]Context, 5)
			InitContexts(decCtx)
			d := NewArithDecoder(e.Bytes())
			for _, v := range vals {
				if got := d.DecodeUnaryGolomb(decCtx, maxPrefix, k); got != v {
					t.Fatalf("maxPrefix=%d k=%d: got %d want %d", maxPrefix, k, got, v)
				}
			}
		}
	}
}

func TestUnaryGolombRoundTripProperty(t *testing.T) {
	f := func(vs []uint32) bool {
		encCtx := make([]Context, 3)
		InitContexts(encCtx)
		e := NewArithEncoder()
		for _, v := range vs {
			e.EncodeUnaryGolomb(v%(1<<20), encCtx, 8, 2)
		}
		decCtx := make([]Context, 3)
		InitContexts(decCtx)
		d := NewArithDecoder(e.Bytes())
		for _, v := range vs {
			if d.DecodeUnaryGolomb(decCtx, 8, 2) != v%(1<<20) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContextAdaptationConverges(t *testing.T) {
	c := NewContext()
	for i := 0; i < 200; i++ {
		c.Update(0)
	}
	if c.Prob() < 240 {
		t.Errorf("after 200 zeros, prob = %d, want near 255", c.Prob())
	}
	for i := 0; i < 200; i++ {
		c.Update(1)
	}
	if c.Prob() > 16 {
		t.Errorf("after 200 ones, prob = %d, want near 1", c.Prob())
	}
}

func TestArithLongMixedStream(t *testing.T) {
	// Exercise carry propagation paths with a long adversarial stream.
	r := rng.New(4242)
	const n = 100000
	bits := make([]int, n)
	probs := make([]uint8, n)
	for i := range bits {
		bits[i] = int(r.Uint64() & 1)
		p := uint8(r.Intn(255)) + 1
		probs[i] = p
	}
	e := NewArithEncoder()
	for i := range bits {
		e.EncodeBit(bits[i], probs[i])
	}
	d := NewArithDecoder(e.Bytes())
	for i := range bits {
		if d.DecodeBit(probs[i]) != bits[i] {
			t.Fatalf("mismatch at bin %d", i)
		}
	}
}

// TestUnaryGolombMalformedEscapeEnds: a window that starts above the
// coding range (only corrupt input does that) decodes 1 bits forever;
// the bypass escape must stop and report the value as malformed.
func TestUnaryGolombMalformedEscapeEnds(t *testing.T) {
	d := NewArithDecoder([]byte{0xff, 0xff})
	ctxs := make([]Context, 4)
	InitContexts(ctxs)
	if v := d.DecodeUnaryGolomb(ctxs, 8, 1); v != MalformedUnaryGolomb {
		t.Fatalf("got %d, want MalformedUnaryGolomb", v)
	}
}
