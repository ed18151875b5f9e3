// Package linalg provides the float32 vector math kernel shared by every
// index implementation: distance functions, norms, and small dense helpers.
//
// All distances follow the "smaller is better" convention. For angular
// (cosine) similarity the engine stores normalized vectors and uses
// 1 - dot(a, b), which is a monotone transform of the angle.
package linalg

import (
	"fmt"
	"math"
)

// Metric identifies a distance function.
type Metric int

const (
	// L2 is squared Euclidean distance (monotone in Euclidean distance,
	// cheaper to compute; rankings are identical).
	L2 Metric = iota
	// InnerProduct is negative dot product, so that smaller is better.
	InnerProduct
	// Angular is cosine distance, 1 - cos(a, b), assuming unit vectors.
	Angular
)

// String returns the conventional name of the metric.
func (m Metric) String() string {
	switch m {
	case L2:
		return "L2"
	case InnerProduct:
		return "IP"
	case Angular:
		return "Angular"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// ParseMetric maps a metric name — the String form ("L2", "IP",
// "Angular") or the lowercase CLI spelling ("l2", "ip", "angular") — to
// its value.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "L2", "l2":
		return L2, nil
	case "IP", "ip":
		return InnerProduct, nil
	case "Angular", "angular":
		return Angular, nil
	default:
		return 0, fmt.Errorf("linalg: unknown metric %q (want l2, ip, or angular)", s)
	}
}

// Dot returns the dot product of a and b. The slices must have equal length.
func Dot(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// SquaredL2 returns the squared Euclidean distance between a and b.
func SquaredL2(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// DotBlock computes the dot product of q against every row of block, a
// packed row-major arena of len(block)/dim rows (one contiguous range of a
// Matrix), writing row i's product to out[i]. The per-row arithmetic is
// exactly Dot's (same 4-way unrolled accumulation), so results are
// bit-identical to calling Dot row by row; the win is streaming contiguous
// memory instead of chasing per-row pointers. On amd64 the scan runs as an
// SSE kernel whose lane structure mirrors the scalar accumulators exactly
// (see kernels_amd64.go), preserving bit-identity.
func DotBlock(q, block []float32, out []float32) {
	dotBlockKernel(q, block, out, opNone)
}

// DistanceBlock computes the distance of q to every row of the packed
// arena block under metric m, writing into out. Each out[i] is bitwise
// equal to Distance(m, q, row_i): the InnerProduct/Angular epilogue is
// fused into the scoring loop (negation and 1-x are exact, so fusing
// changes no bits), saving the second sweep over out.
func DistanceBlock(m Metric, q, block []float32, out []float32) {
	switch m {
	case L2:
		l2BlockKernel(q, block, out)
	case InnerProduct:
		dotBlockKernel(q, block, out, opNeg)
	case Angular:
		dotBlockKernel(q, block, out, opOneMinus)
	default:
		panic("linalg: unknown metric " + m.String())
	}
}

// Norm returns the Euclidean norm of v.
func Norm(v []float32) float32 {
	return float32(math.Sqrt(float64(Dot(v, v))))
}

// Normalize scales v to unit norm in place. Zero vectors are left unchanged.
func Normalize(v []float32) {
	n := Norm(v)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
}

// Distance computes the distance between a and b under metric m.
// For Angular the inputs are assumed to be unit vectors.
func Distance(m Metric, a, b []float32) float32 {
	switch m {
	case L2:
		return SquaredL2(a, b)
	case InnerProduct:
		return -Dot(a, b)
	case Angular:
		return 1 - Dot(a, b)
	default:
		panic("linalg: unknown metric " + m.String())
	}
}

// Scale multiplies v by s in place.
func Scale(v []float32, s float32) {
	for i := range v {
		v[i] *= s
	}
}

// AddInto accumulates src into dst element-wise. Lengths must match.
func AddInto(dst, src []float32) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Clone returns a copy of v.
func Clone(v []float32) []float32 {
	c := make([]float32, len(v))
	copy(c, v)
	return c
}
