package index

import (
	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
)

// sq8Chunk is the fixed row-chunk size of the parallel SQ8 phases; chunk
// boundaries depend only on the corpus size, keeping training and encoding
// worker-count-invariant.
const sq8Chunk = 512

// sq8Codec quantizes vectors to one byte per dimension with a per-dimension
// affine transform (Milvus' SQ8).
type sq8Codec struct {
	dim   int
	min   []float32
	scale []float32 // (max-min)/255 per dim; 0 for constant dims
}

func trainSQ8(store *linalg.Matrix, dim, workers int) *sq8Codec {
	c := &sq8Codec{
		dim:   dim,
		min:   make([]float32, dim),
		scale: make([]float32, dim),
	}
	// Per-chunk min/max, merged in chunk order (min/max are exact, so the
	// merge order only matters for determinism of NaN handling).
	n := store.Rows()
	nChunks := parallel.NumChunks(n, sq8Chunk)
	mins := make([][]float32, nChunks)
	maxs := make([][]float32, nChunks)
	parallel.ForRanges(workers, n, sq8Chunk, func(ch, lo, hi int) {
		mn := make([]float32, dim)
		mx := make([]float32, dim)
		copy(mn, store.Row(lo))
		copy(mx, store.Row(lo))
		for i := lo + 1; i < hi; i++ {
			for j, x := range store.Row(i) {
				if x < mn[j] {
					mn[j] = x
				}
				if x > mx[j] {
					mx[j] = x
				}
			}
		}
		mins[ch], maxs[ch] = mn, mx
	})
	max := make([]float32, dim)
	copy(c.min, mins[0])
	copy(max, maxs[0])
	for ch := 1; ch < nChunks; ch++ {
		for j := 0; j < dim; j++ {
			if mins[ch][j] < c.min[j] {
				c.min[j] = mins[ch][j]
			}
			if maxs[ch][j] > max[j] {
				max[j] = maxs[ch][j]
			}
		}
	}
	for j := 0; j < dim; j++ {
		c.scale[j] = (max[j] - c.min[j]) / 255
	}
	return c
}

// encodeGrouped encodes every row of store into one flat code arena in
// grouped order: codes[g*dim:(g+1)*dim] encodes store.Row(order[g]). Rows
// fan across the worker pool; each grouped slot is written by exactly one
// chunk, so the pass is race-free and deterministic.
func (c *sq8Codec) encodeGrouped(store *linalg.Matrix, order []int32, workers int) []byte {
	codes := make([]byte, len(order)*c.dim)
	parallel.ForRanges(workers, len(order), sq8Chunk, func(_, lo, hi int) {
		for g := lo; g < hi; g++ {
			c.encode(store.Row(int(order[g])), codes[g*c.dim:(g+1)*c.dim])
		}
	})
	return codes
}

func (c *sq8Codec) encode(v []float32, dst []byte) {
	for j, x := range v {
		if c.scale[j] == 0 {
			dst[j] = 0
			continue
		}
		q := (x - c.min[j]) / c.scale[j]
		if q < 0 {
			q = 0
		}
		if q > 255 {
			q = 255
		}
		dst[j] = byte(q + 0.5)
	}
}

// sq8ScanMetric maps an index metric onto the SQ8 kernel family: negative
// dot for InnerProduct, reconstruction L2 for everything else (Angular
// inputs are normalized upstream, so squared L2 ranks identically).
func sq8ScanMetric(m linalg.Metric) linalg.Metric {
	if m == linalg.InnerProduct {
		return linalg.InnerProduct
	}
	return linalg.L2
}

// dist computes the approximate distance between query q and one code row
// under index metric m: the scalar form of the blocked kernel contract,
// bit-identical to a one-row DistanceSQ8Block call.
func (c *sq8Codec) dist(m linalg.Metric, q []float32, code []byte) float32 {
	return linalg.SQ8Distance(sq8ScanMetric(m), q, c.min, c.scale, code)
}

func (c *sq8Codec) bytes() int64 {
	return 2 * int64(c.dim) * float32Bytes // min/scale
}

// sq8Payload is IVF_SQ8's (and SCANN's stage-1) payload: SQ8 codes in one
// flat arena grouped cell-major, so each probe streams a contiguous byte
// range through the blocked decode kernels. Scanning in the quantized
// domain is cheaper per candidate at a small recall loss; IVF_SQ8 retains
// no raw vectors, matching Milvus.
type sq8Payload struct {
	metric linalg.Metric // the SQ8 kernel metric (sq8ScanMetric)
	codec  *sq8Codec
	codes  []byte // grouped, rows*dim bytes
}

func (p *sq8Payload) encode(store *linalg.Matrix, order []int32, _ int64, workers int) (Stats, error) {
	p.codec = trainSQ8(store, store.Dim(), workers)
	p.codes = p.codec.encodeGrouped(store, order, workers)
	// Encoding charges one code-domain pass over the data.
	return Stats{CodeComps: int64(store.Rows())}, nil
}

// queryArg hoists the per-query affine constant of a blocked SQ8 scan:
// the L2 kernels take the residual q - min (computed once into s.resid),
// the dot kernels the raw query.
func (p *sq8Payload) queryArg(q []float32, s *searchScratch) []float32 {
	if p.metric != linalg.L2 {
		return q
	}
	s.resid = f32Buf(s.resid, p.codec.dim)
	linalg.SQ8Residual(q, p.codec.min, s.resid)
	return s.resid
}

// queryArgs hoists every query's residual into the flat s.mres arena
// under L2.
func (p *sq8Payload) queryArgs(queries [][]float32, s *searchScratch) [][]float32 {
	if p.metric != linalg.L2 {
		return queries
	}
	dim := p.codec.dim
	s.mres = f32Buf(s.mres, len(queries)*dim)
	s.margs = f32sBuf(s.margs, len(queries))
	for qi, q := range queries {
		s.margs[qi] = s.mres[qi*dim : (qi+1)*dim]
		linalg.SQ8Residual(q, p.codec.min, s.margs[qi])
	}
	return s.margs
}

func (p *sq8Payload) scan(arg []float32, lo, hi int, out []float32) {
	dim := p.codec.dim
	linalg.DistanceSQ8Block(p.metric, arg, p.codec.min, p.codec.scale, p.codes[lo*dim:hi*dim], out)
}

// scanMulti decodes the range once per quad of arguments with the
// multi-query SQ8 kernels.
func (p *sq8Payload) scanMulti(args [][]float32, lo, hi int, outs [][]float32) {
	dim := p.codec.dim
	linalg.DistanceSQ8MultiScatter(p.metric, args, p.codec.min, p.codec.scale, p.codes[lo*dim:hi*dim], outs)
}

func (p *sq8Payload) work(_, rows int64) Stats { return Stats{CodeComps: rows} }

func (p *sq8Payload) bytes() int64 { return int64(len(p.codes)) + p.codec.bytes() }
