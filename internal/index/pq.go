package index

import (
	"fmt"

	"vdtuner/internal/kmeans"
	"vdtuner/internal/linalg"
)

// pqPayload is IVF_PQ's payload: vectors are split into m subspaces, each
// encoded by a 2^nbits-entry codebook, and probed cells are scanned with
// asymmetric distance computation (per-query lookup tables), matching
// Milvus' IVF_PQ. Distances are approximate; recall degrades as m shrinks
// or nbits shrinks, which is exactly the trade-off the tuner must learn.
//
// Layout: codes are one flat arena grouped cell-major (m entries per
// row), packed at the narrowest width the trained codebook allows —
// codes8 when ksubN ≤ 256 (the default nbits=8 and below), codes16
// otherwise; exactly one of the two is non-nil. Codebooks are one
// (m*ksub) x subDim arena whose subspace-s codeword c is row s*ksub+c, so
// the per-query ADC table build is m blocked kernel calls over contiguous
// codeword ranges; the table itself is one flat m*ksub []float32 drawn
// from the query scratch and scanned by the linalg PQScan kernels.
type pqPayload struct {
	metric linalg.Metric
	m      int // subquantizers; divides dim
	nbits  int // code width; codebook size is 1<<nbits
	subDim int
	// books holds the m*ksubN codewords; row s*ksubN+c is codeword c of
	// subspace s.
	books *linalg.Matrix
	// ksubN is the actual per-subspace codebook size: 1<<nbits, clamped
	// down by the trainer when the corpus is smaller.
	ksubN   int
	codes8  []uint8  // grouped, m per row; nil when ksubN > 256
	codes16 []uint16 // grouped, m per row; nil when ksubN ≤ 256
}

func newPQPayload(metric linalg.Metric, dim int, p BuildParams) *pqPayload {
	m := p.M
	if m == 0 {
		m = 8
	}
	// m must divide dim; round down to the nearest divisor.
	for m > 1 && dim%m != 0 {
		m--
	}
	if m < 1 {
		m = 1
	}
	nbits := p.NBits
	if nbits == 0 {
		nbits = 8
	}
	if nbits < 4 {
		nbits = 4
	}
	if nbits > 12 {
		nbits = 12
	}
	return &pqPayload{metric: metric, m: m, nbits: nbits, subDim: dim / m}
}

func (x *pqPayload) encode(store *linalg.Matrix, order []int32, seed int64, workers int) (Stats, error) {
	n := store.Rows()
	ksub := 1 << x.nbits
	x.books = linalg.NewMatrix(x.subDim, x.m*ksub)
	assigns := make([][]int, x.m)
	for s := 0; s < x.m; s++ {
		lo, hi := s*x.subDim, (s+1)*x.subDim
		// The subspace view is strided (stride = dim), clustered without
		// copying the corpus.
		res, err := kmeans.Run(store.SubspaceView(lo, hi), kmeans.Config{
			K: ksub, Seed: seed + int64(s) + 1, MaxIters: 10,
			SampleLimit: 8 * ksub, Workers: workers,
		})
		if err != nil {
			return Stats{}, fmt.Errorf("codebook %d: %w", s, err)
		}
		// The trainer clamps K down on small corpora; every subspace
		// clusters the same row count, so the clamp is uniform.
		x.ksubN = len(res.Centroids)
		for _, cw := range res.Centroids {
			x.books.AppendRow(cw)
		}
		assigns[s] = res.Assign
	}
	// Pack at the narrowest width the trained codebook allows: one byte
	// per entry when every codeword index fits, halving code-arena
	// traffic on every scan at the default nbits=8.
	if x.ksubN <= 256 {
		x.codes8 = make([]uint8, n*x.m)
		for s, as := range assigns {
			for g, o := range order {
				x.codes8[g*x.m+s] = uint8(as[o])
			}
		}
	} else {
		x.codes16 = make([]uint16, n*x.m)
		for s, as := range assigns {
			for g, o := range order {
				x.codes16[g*x.m+s] = uint16(as[o])
			}
		}
	}
	// Codebook training cost in full-dimension units: the final assign
	// pass compares every row to every codeword in each of the m
	// subspaces, and each subspace comparison touches subDim = dim/m
	// dimensions — m * (n*ksubN) * (1/m) = n*ksubN full-dim equivalents.
	return Stats{
		DistComps: int64(n) * int64(x.ksubN),
		CodeComps: int64(n),
	}, nil
}

// queryArg builds q's flat ADC lookup table: adc[s*ksub+c] is the distance
// between the query's subvector s and codeword c, computed with one
// blocked kernel call per subspace over the contiguous codeword arena
// (the metric epilogue is fused in DistanceBlock). Total work is m * ksub
// subspace distances = ksub full-dimension equivalents.
func (x *pqPayload) queryArg(q []float32, s *searchScratch) []float32 {
	ksub := x.ksubN
	s.adc = f32Buf(s.adc, x.m*ksub)
	books := x.books.Data()
	rowLen := ksub * x.subDim
	for sub := 0; sub < x.m; sub++ {
		qs := q[sub*x.subDim : (sub+1)*x.subDim]
		linalg.DistanceBlock(x.metric, qs, books[sub*rowLen:(sub+1)*rowLen], s.adc[sub*ksub:(sub+1)*ksub])
	}
	return s.adc
}

// queryArgs builds all Q ADC tables into one flat arena with one
// DistanceMultiScatter per subspace over the contiguous codeword range —
// bit-identical to Q per-query DistanceBlock builds.
func (x *pqPayload) queryArgs(queries [][]float32, s *searchScratch) [][]float32 {
	qn := len(queries)
	ksub := x.ksubN
	tab := x.m * ksub
	s.madc = f32Buf(s.madc, qn*tab)
	books := x.books.Data()
	rowLen := ksub * x.subDim
	s.mqrows = f32sBuf(s.mqrows, qn)
	s.mouts = f32sBuf(s.mouts, qn)
	for sub := 0; sub < x.m; sub++ {
		for qi, q := range queries {
			s.mqrows[qi] = q[sub*x.subDim : (sub+1)*x.subDim]
			s.mouts[qi] = s.madc[qi*tab+sub*ksub : qi*tab+(sub+1)*ksub]
		}
		linalg.DistanceMultiScatter(x.metric, s.mqrows, books[sub*rowLen:(sub+1)*rowLen], s.mouts)
	}
	s.margs = f32sBuf(s.margs, qn)
	for qi := range queries {
		s.margs[qi] = s.madc[qi*tab : (qi+1)*tab]
	}
	return s.margs
}

// scan walks the range's codes with the unrolled PQScan kernels (four
// independent gather chains per code row).
func (x *pqPayload) scan(adc []float32, lo, hi int, out []float32) {
	if x.codes8 != nil {
		linalg.PQScan8(adc, x.codes8[lo*x.m:hi*x.m], x.m, x.ksubN, out)
	} else {
		linalg.PQScan16(adc, x.codes16[lo*x.m:hi*x.m], x.m, x.ksubN, out)
	}
}

// scanMulti loads each code row's entries once for every table.
func (x *pqPayload) scanMulti(adcs [][]float32, lo, hi int, outs [][]float32) {
	if x.codes8 != nil {
		linalg.PQScan8Multi(adcs, x.codes8[lo*x.m:hi*x.m], x.m, x.ksubN, outs)
	} else {
		linalg.PQScan16Multi(adcs, x.codes16[lo*x.m:hi*x.m], x.m, x.ksubN, outs)
	}
}

// work charges each ADC table build ksub full-dimension equivalents and
// each scanned row one lookup per subquantizer.
func (x *pqPayload) work(queries, rows int64) Stats {
	return Stats{DistComps: queries * int64(x.ksubN), Lookups: rows * int64(x.m)}
}

// bytes counts the codes at their actual packed width — 1 byte per entry
// in codes8, 2 in codes16 (exactly one of the two is populated) — and the
// codebooks exactly: m*ksubN rows (ksub may be clamped).
func (x *pqPayload) bytes() int64 {
	return int64(len(x.codes8)) + 2*int64(len(x.codes16)) + x.books.Bytes()
}
