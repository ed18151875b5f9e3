package index

import (
	"fmt"

	"vdtuner/internal/linalg"
)

// scann approximates Milvus' SCANN index: an IVF partition whose posting
// lists are scored in a quantized domain (SQ8 codes standing in for SCANN's
// anisotropic quantization), followed by exact re-ranking of the best
// reorder_k candidates against the retained raw vectors. Parameters:
// nlist (build); nprobe and reorder_k (search). Codes and raw vectors are
// both grouped cell-major, so stage 1 streams contiguous byte ranges and
// stage 2 re-ranks by grouped row.
type scann struct {
	coarse  *ivfCoarse
	codec   *sq8Codec
	codes   []byte         // grouped
	store   *linalg.Matrix // grouped raw vectors kept for re-ranking
	ids     []int64        // grouped
	scratch scratchPool
}

func newSCANN(m linalg.Metric, dim int, p BuildParams) (*scann, error) {
	nlist := p.NList
	if nlist == 0 {
		nlist = 128
	}
	c, err := newIVFCoarse(m, dim, nlist, p.Seed, p.Workers)
	if err != nil {
		return nil, err
	}
	return &scann{coarse: c}, nil
}

func (x *scann) Type() Type { return SCANN }

func (x *scann) pool() *scratchPool { return &x.scratch }

func (x *scann) Build(store *linalg.Matrix, ids []int64) error {
	if store.Rows() != len(ids) {
		return fmt.Errorf("scann: %d vectors but %d ids", store.Rows(), len(ids))
	}
	order, err := x.coarse.train(store)
	if err != nil {
		return err
	}
	x.codec = trainSQ8(store, x.coarse.dim, x.coarse.workers)
	x.codes = x.codec.encodeGrouped(store, order, x.coarse.workers)
	x.store = gatherRows(store, order)
	x.ids = gatherIDs(ids, order)
	x.coarse.buildWork.Add(Stats{CodeComps: int64(store.Rows())})
	return nil
}

func (x *scann) searchWith(q []float32, k int, p SearchParams, st *Stats, s *searchScratch, dst []linalg.Neighbor) []linalg.Neighbor {
	if len(x.codes) == 0 || k < 1 {
		return dst
	}
	cells := x.coarse.probe(q, x.coarse.clampProbe(p.NProbe), st, s)
	return x.scanCells(q, cells, k, p, st, s, dst)
}

// scanCells runs both SCANN stages over the given cells in probe order:
// blocked quantized stage-1 selection (the SQ8 decode kernels stream each
// cell's contiguous byte range), then exact re-ranking of the survivors
// through the blocked float kernel over a gathered candidate arena.
func (x *scann) scanCells(q []float32, cells []int32, k int, p SearchParams, st *Stats, s *searchScratch, dst []linalg.Neighbor) []linalg.Neighbor {
	reorder := p.ReorderK
	if reorder < k {
		reorder = k
	}
	dim := x.coarse.dim

	// Stage 1: quantized scoring of the probed cells, keeping the best
	// reorder_k candidates by grouped row.
	sm, qa := x.codec.scanArg(x.coarse.metric, q, s)
	stage1 := s.stage1.Reset(reorder)
	var scanned int64
	for _, cell := range cells {
		lo, hi := x.coarse.cellRange(cell)
		if lo == hi {
			continue
		}
		s.dists = f32Buf(s.dists, int(hi-lo))
		linalg.DistanceSQ8Block(sm, qa, x.codec.min, x.codec.scale, x.codes[int(lo)*dim:int(hi)*dim], s.dists)
		for i, d := range s.dists {
			stage1.Push(int64(int(lo)+i), d)
		}
		scanned += int64(hi - lo)
	}
	accumulate(st, Stats{CodeComps: scanned})

	// Stage 2: exact re-ranking of the survivors.
	s.neighbors = stage1.AppendResults(s.neighbors[:0])
	top := s.top.Reset(k)
	x.rerank(q, s)
	for ci, c := range s.neighbors {
		top.Push(x.ids[int(c.ID)], s.dists[ci])
	}
	accumulate(st, Stats{DistComps: int64(len(s.neighbors))})
	return top.AppendResults(dst)
}

// rerank gathers the stage-1 survivors in s.neighbors into the contiguous
// s.gath arena and scores them exactly with one blocked kernel call,
// leaving candidate ci's distance in s.dists[ci]. Gathered rows are exact
// copies, so each output is bitwise equal to a per-row linalg.Distance.
func (x *scann) rerank(q []float32, s *searchScratch) {
	dim := x.coarse.dim
	n := len(s.neighbors)
	s.gath = f32Buf(s.gath, n*dim)
	for ci, c := range s.neighbors {
		copy(s.gath[ci*dim:(ci+1)*dim], x.store.Row(int(c.ID)))
	}
	s.dists = f32Buf(s.dists, n)
	linalg.DistanceBlock(x.coarse.metric, q, s.gath[:n*dim], s.dists)
}

func (x *scann) SearchInto(q []float32, k int, p SearchParams, st *Stats, top *linalg.TopK) {
	searchIntoPooled(x, q, k, p, st, top)
}

// SearchMultiInto shares the quantized stage-1 streaming across the query
// tile: batched coarse assignment, cell→prober inversion with each probed
// cell's code range decoded once per quad of probers by the multi-query
// SQ8 kernels, then a per-query replay that selects each query's reorder_k
// survivors in the single-query candidate order and re-ranks them exactly
// through the blocked float kernel — results are bit-identical per query.
func (x *scann) SearchMultiInto(queries [][]float32, k int, p SearchParams, st *Stats, tops []*linalg.TopK) {
	qn := len(queries)
	if len(x.codes) == 0 || k < 1 || qn == 0 {
		return
	}
	if qn == 1 { // a tile of one takes the single-query scan
		x.SearchInto(queries[0], k, p, st, tops[0])
		return
	}
	reorder := p.ReorderK
	if reorder < k {
		reorder = k
	}
	s := x.scratch.get()
	nprobe := x.coarse.clampProbe(p.NProbe)
	probes := x.coarse.probeMulti(queries, nprobe, st, s)
	total := x.coarse.invertProbes(probes, s)

	dim := x.coarse.dim
	sm := x.codec.scanMetric(x.coarse.metric)
	l2 := sm == linalg.L2
	if l2 {
		s.mres = f32Buf(s.mres, qn*dim)
		for qi, q := range queries {
			linalg.SQ8Residual(q, x.codec.min, s.mres[qi*dim:(qi+1)*dim])
		}
	}

	ncells := x.coarse.cents.Rows()
	for c := 0; c < ncells; c++ {
		elo, ehi := int(s.mcnt[c]), int(s.mcnt[c+1])
		if elo == ehi {
			continue
		}
		lo, hi := x.coarse.cellRange(int32(c))
		if lo == hi {
			continue
		}
		nq := ehi - elo
		s.mqrows = f32sBuf(s.mqrows, nq)
		s.mouts = f32sBuf(s.mouts, nq)
		for j := 0; j < nq; j++ {
			slot := s.ment[elo+j]
			qi := int(slot) / nprobe
			if l2 {
				s.mqrows[j] = s.mres[qi*dim : (qi+1)*dim]
			} else {
				s.mqrows[j] = queries[qi]
			}
			o := s.mregion[slot]
			s.mouts[j] = s.mbuf[o : o+hi-lo]
		}
		linalg.DistanceSQ8MultiScatter(sm, s.mqrows, x.codec.min, x.codec.scale,
			x.codes[int(lo)*dim:int(hi)*dim], s.mouts)
	}

	var reranked int64
	for qi, q := range queries {
		stage1 := s.stage1.Reset(reorder)
		for pi := 0; pi < nprobe; pi++ {
			slot := qi*nprobe + pi
			lo, hi := x.coarse.cellRange(probes[slot])
			if lo == hi {
				continue
			}
			o := s.mregion[slot]
			for i := int32(0); i < hi-lo; i++ {
				stage1.Push(int64(lo+i), s.mbuf[o+i])
			}
		}
		s.neighbors = stage1.AppendResults(s.neighbors[:0])
		x.rerank(q, s)
		top := s.top.Reset(k)
		for ci, c := range s.neighbors {
			top.Push(x.ids[int(c.ID)], s.dists[ci])
		}
		reranked += int64(len(s.neighbors))
		s.res = top.AppendResults(s.res[:0])
		dst := tops[qi]
		for _, nb := range s.res {
			dst.Push(nb.ID, nb.Dist)
		}
	}
	accumulate(st, Stats{CodeComps: int64(total), DistComps: reranked})
	for j := range s.mqrows {
		s.mqrows[j] = nil // don't pin caller query slices in the pool
	}
	x.scratch.put(s)
}

func (x *scann) MemoryBytes() int64 {
	if x.store == nil {
		return 0
	}
	return x.store.Bytes() + // raw
		int64(len(x.codes)) + // codes
		x.coarse.centroidBytes() +
		x.codec.bytes() +
		int64(len(x.ids))*4
}

func (x *scann) BuildStats() Stats { return x.coarse.buildWork }

func (x *scann) StoreAdopted() bool { return false }
