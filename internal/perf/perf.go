// Package perf defines the abstract work accounting shared by every
// encoder in vbench and the deterministic timing models that convert
// that work into transcode speed.
//
// The paper reports speed measured on one fixed reference machine
// (an i7-6700K for scores; a Xeon E5-1650v3 for the µarch study).
// Reproducing wall-clock numbers of other people's silicon is neither
// possible nor necessary: vbench scores are *ratios* against the
// reference transcode. We therefore make every encoder account for the
// operations it actually performs, kernel by kernel, and convert ops
// to time with an explicit machine model. Two encoders' speed ratio
// then reflects the real ratio of work performed, is bit-reproducible
// across machines, and — for the fixed-function "GPU" encoders — can
// express pipelined hardware that a pure-Go implementation could never
// demonstrate with wall clocks.
package perf

import "fmt"

// Kernel identifies one computational kernel of the transcoding
// pipeline. The decomposition mirrors the hotspots the paper names:
// motion estimation, interpolation, transform, quantization, entropy
// coding, intra prediction, deblocking, and the scalar decision logic
// around them.
type Kernel int

// The transcoder kernels.
const (
	KSAD     Kernel = iota // block matching (SAD/SATD) during motion search
	KInterp                // sub-pel interpolation and motion compensation
	KDCT                   // forward/inverse transforms
	KQuant                 // quantization and dequantization
	KEntropy               // entropy coding (strictly sequential)
	KIntra                 // intra prediction
	KDeblock               // deblocking filter
	KControl               // mode decisions, rate control, bookkeeping
	KDecode                // bitstream parsing on the decode side
	NumKernels
)

var kernelNames = [NumKernels]string{
	"sad", "interp", "dct", "quant", "entropy", "intra", "deblock", "control", "decode",
}

// String returns the kernel's short name.
func (k Kernel) String() string {
	if k < 0 || k >= NumKernels {
		return fmt.Sprintf("kernel(%d)", int(k))
	}
	return kernelNames[k]
}

// Kernels lists all kernels in order.
func Kernels() []Kernel {
	ks := make([]Kernel, NumKernels)
	for i := range ks {
		ks[i] = Kernel(i)
	}
	return ks
}

// Vectorizable reports whether a kernel's inner loops are data
// parallel. Entropy coding, control flow, and bitstream parsing are
// the sequential kernels the paper identifies as the scalar floor
// (≈60% of time) that limits SIMD gains.
func (k Kernel) Vectorizable() bool {
	switch k {
	case KSAD, KInterp, KDCT, KQuant, KIntra, KDeblock:
		return true
	}
	return false
}

// Counters accumulates abstract operation counts per kernel, plus
// structural statistics about the encode used by the µarch model.
type Counters struct {
	// Ops counts element-level operations per kernel (pixel
	// comparisons, filter taps, butterfly adds, coded bins, ...).
	Ops [NumKernels]int64

	// Invocations counts kernel entries (one per block or search
	// call); the ratio Ops/Invocations gives the kernel's run length,
	// which drives front-end behaviour in the µarch model.
	Invocations [NumKernels]int64

	// Structural encode statistics.
	MBTotal     int64 // macroblocks processed
	MBSkip      int64 // skip-coded macroblocks
	MBIntra     int64 // intra-coded macroblocks
	MBInter     int64 // inter-coded macroblocks
	BlocksCoded int64 // residual blocks with nonzero coefficients
	BitsOutput  int64 // compressed bits produced
	Frames      int64 // frames processed
	Pixels      int64 // luma pixels processed

	// DataDepBranches counts branches whose outcome depends on pixel
	// data (significance tests, zero checks, threshold compares);
	// these are the hard-to-predict branches in the µarch model.
	DataDepBranches int64
}

// Add accumulates other into c.
func (c *Counters) Add(other *Counters) {
	for i := range c.Ops {
		c.Ops[i] += other.Ops[i]
		c.Invocations[i] += other.Invocations[i]
	}
	c.MBTotal += other.MBTotal
	c.MBSkip += other.MBSkip
	c.MBIntra += other.MBIntra
	c.MBInter += other.MBInter
	c.BlocksCoded += other.BlocksCoded
	c.BitsOutput += other.BitsOutput
	c.Frames += other.Frames
	c.Pixels += other.Pixels
	c.DataDepBranches += other.DataDepBranches
}

// Sub removes other from c, so c − before is the work billed since a
// snapshot before was taken.
func (c *Counters) Sub(other *Counters) {
	for i := range c.Ops {
		c.Ops[i] -= other.Ops[i]
		c.Invocations[i] -= other.Invocations[i]
	}
	c.MBTotal -= other.MBTotal
	c.MBSkip -= other.MBSkip
	c.MBIntra -= other.MBIntra
	c.MBInter -= other.MBInter
	c.BlocksCoded -= other.BlocksCoded
	c.BitsOutput -= other.BitsOutput
	c.Frames -= other.Frames
	c.Pixels -= other.Pixels
	c.DataDepBranches -= other.DataDepBranches
}

// Count records n ops in kernel k as a single invocation.
func (c *Counters) Count(k Kernel, n int64) {
	c.Ops[k] += n
	c.Invocations[k]++
}

// TotalOps returns the sum of ops across kernels.
func (c *Counters) TotalOps() int64 {
	var t int64
	for _, v := range c.Ops {
		t += v
	}
	return t
}
