package index

import (
	"fmt"
	"strings"

	"vdtuner/internal/kmeans"
	"vdtuner/internal/linalg"
)

// ivfCoarse is the shared coarse quantizer of the IVF family: a k-means
// partition of the data into nlist cells. The ivf index stores its payload
// and ids grouped cell-major — cell c's rows occupy the
// contiguous grouped range [cellStart[c], cellStart[c+1]) — so a probe
// scans one contiguous block per cell instead of chasing a posting list of
// scattered offsets.
type ivfCoarse struct {
	metric  linalg.Metric
	dim     int
	nlist   int
	seed    int64
	workers int
	// cents is the nlist x dim centroid arena.
	cents *linalg.Matrix
	// cellStart[c] is the first grouped row of cell c; len is ncells+1.
	cellStart []int32
	built     bool
	buildWork Stats
}

func newIVFCoarse(m linalg.Metric, dim, nlist int, seed int64, workers int) (*ivfCoarse, error) {
	if nlist < 1 {
		return nil, fmt.Errorf("ivf: nlist must be >= 1, got %d", nlist)
	}
	return &ivfCoarse{metric: m, dim: dim, nlist: nlist, seed: seed, workers: workers}, nil
}

// train clusters the vectors and returns the grouping permutation: grouped
// row g holds original row order[g], cells in index order, within-cell rows
// in original row order (the posting-list order of the previous layout, so
// scan and therefore result order is unchanged).
func (c *ivfCoarse) train(store *linalg.Matrix) ([]int32, error) {
	if c.built {
		return nil, fmt.Errorf("ivf: Build called twice")
	}
	if store == nil || store.Rows() == 0 {
		return nil, fmt.Errorf("ivf: no vectors")
	}
	if store.Dim() != c.dim {
		return nil, fmt.Errorf("ivf: store has dim %d, want %d", store.Dim(), c.dim)
	}
	if !store.Packed() {
		return nil, fmt.Errorf("ivf: store must be packed (stride == dim)")
	}
	n := store.Rows()
	sample := 20 * c.nlist
	if sample < 2000 {
		sample = 2000
	}
	res, err := kmeans.Run(store, kmeans.Config{
		K: c.nlist, Seed: c.seed, MaxIters: 12, SampleLimit: sample,
		Workers: c.workers,
	})
	if err != nil {
		return nil, fmt.Errorf("ivf: training: %w", err)
	}
	c.cents = linalg.MatrixFromRows(res.Centroids)
	ncells := len(res.Centroids)
	counts := make([]int32, ncells)
	for _, a := range res.Assign {
		counts[a]++
	}
	c.cellStart = make([]int32, ncells+1)
	for i := 0; i < ncells; i++ {
		c.cellStart[i+1] = c.cellStart[i] + counts[i]
	}
	order := make([]int32, n)
	fill := make([]int32, ncells)
	copy(fill, c.cellStart[:ncells])
	for i, a := range res.Assign {
		order[fill[a]] = int32(i)
		fill[a]++
	}
	// Approximate training cost: iters * points * centroids comparisons
	// on the (possibly sampled) training set plus the final full assign.
	trainN := n
	if trainN > sample {
		trainN = sample
	}
	c.buildWork = Stats{DistComps: int64(res.Iters)*int64(trainN)*int64(ncells) +
		int64(n)*int64(ncells)}
	c.built = true
	return order, nil
}

// cellRange returns the grouped row range of cell c.
func (c *ivfCoarse) cellRange(cell int32) (lo, hi int32) {
	return c.cellStart[cell], c.cellStart[cell+1]
}

// probe returns the nprobe cells nearest to q in ascending centroid
// distance (ties broken by cell id, keeping the order deterministic) and
// charges the coarse comparison work to st. The returned slice is owned by
// s and valid until its next probe. The selection is partial: a bounded
// max-heap over the centroid distances, O(nlist log nprobe), instead of a
// full sort — the common nprobe ≪ nlist case skips almost all of the sort
// work.
func (c *ivfCoarse) probe(q []float32, nprobe int, st *Stats, s *searchScratch) []int32 {
	ncells := c.cents.Rows()
	s.dists = f32Buf(s.dists, ncells)
	linalg.DistanceBlock(c.metric, q, c.cents.Data(), s.dists)
	accumulate(st, Stats{DistComps: int64(ncells)})
	return c.selectCells(s.dists, nprobe, s)
}

// probeMulti is the batched coarse assignment: every centroid is scored
// against all queries in one multi-query blocked pass (the centroid arena
// is itself a small scan), then each query's nprobe nearest cells are
// selected exactly as probe would. The returned flat table holds query
// qi's probe order at [qi*nprobe : (qi+1)*nprobe]; it aliases s.mprobe and
// is valid until the scratch's next multi probe. nprobe must already be
// clamped to the cell count, so every query selects exactly nprobe cells.
func (c *ivfCoarse) probeMulti(queries [][]float32, nprobe int, st *Stats, s *searchScratch) []int32 {
	ncells := c.cents.Rows()
	qn := len(queries)
	s.mdists = f32Buf(s.mdists, qn*ncells)
	s.mouts = f32sBuf(s.mouts, qn)
	for qi := 0; qi < qn; qi++ {
		s.mouts[qi] = s.mdists[qi*ncells : (qi+1)*ncells]
	}
	linalg.DistanceMultiScatter(c.metric, queries, c.cents.Data(), s.mouts)
	accumulate(st, Stats{DistComps: int64(qn) * int64(ncells)})
	s.mprobe = i32Buf(s.mprobe, qn*nprobe)
	for qi := 0; qi < qn; qi++ {
		sel := c.selectCells(s.mouts[qi], nprobe, s)
		copy(s.mprobe[qi*nprobe:(qi+1)*nprobe], sel)
	}
	return s.mprobe
}

// selectCells runs the partial selection over precomputed centroid
// distances: a bounded max-heap of the best nprobe (distance, cell)
// pairs, worst at the root; ties order by larger cell id = worse, so the
// retained set and the final order are id-deterministic.
func (c *ivfCoarse) selectCells(dists []float32, nprobe int, s *searchScratch) []int32 {
	heap := i32Buf(s.probe, nprobe)[:0]
	heapD := f32Buf(s.probeD, nprobe)[:0]
	worse := func(i, j int) bool {
		return heapD[i] > heapD[j] || (heapD[i] == heapD[j] && heap[i] > heap[j])
	}
	swap := func(i, j int) {
		heap[i], heap[j] = heap[j], heap[i]
		heapD[i], heapD[j] = heapD[j], heapD[i]
	}
	siftDown := func(i, n int) {
		for {
			l, r := 2*i+1, 2*i+2
			w := i
			if l < n && worse(l, w) {
				w = l
			}
			if r < n && worse(r, w) {
				w = r
			}
			if w == i {
				return
			}
			swap(i, w)
			i = w
		}
	}
	for cell := 0; cell < len(dists); cell++ {
		d := dists[cell]
		if len(heap) < nprobe {
			heap = append(heap, int32(cell))
			heapD = append(heapD, d)
			// Sift up.
			for i := len(heap) - 1; i > 0; {
				parent := (i - 1) / 2
				if !worse(i, parent) {
					break
				}
				swap(i, parent)
				i = parent
			}
			continue
		}
		// Replace the root when strictly better: smaller distance, or
		// equal distance and smaller id.
		if d > heapD[0] || (d == heapD[0] && int32(cell) > heap[0]) {
			continue
		}
		heap[0], heapD[0] = int32(cell), d
		siftDown(0, nprobe)
	}
	// Heap-sort ascending: pop the worst to the shrinking tail.
	for n := len(heap) - 1; n > 0; n-- {
		swap(0, n)
		siftDown(0, n)
	}
	s.probe, s.probeD = heap[:cap(heap)], heapD[:cap(heapD)]
	return heap
}

// invertProbes inverts a flat Q×nprobe probe table cell→probers with a
// counting sort: s.mcnt[c]..s.mcnt[c+1] bound cell c's entries in s.ment
// (global probe-slot ids, gathered in ascending slot = ascending query
// order, deterministically), and s.mregion assigns each (query,
// probe-slot) its contiguous region of s.mbuf, sized by its cell. The
// total region length is returned and s.mbuf is sized to it. After it,
// ivf.SearchMultiInto scans each probed cell once for all of its probers
// into the regions, then replays per query.
func (c *ivfCoarse) invertProbes(probes []int32, s *searchScratch) int {
	ncells := c.cents.Rows()
	slots := len(probes)
	s.mcnt = i32Buf(s.mcnt, ncells+1)
	for i := range s.mcnt {
		s.mcnt[i] = 0
	}
	for _, cell := range probes {
		s.mcnt[cell+1]++
	}
	for cell := 0; cell < ncells; cell++ {
		s.mcnt[cell+1] += s.mcnt[cell]
	}
	s.mfill = i32Buf(s.mfill, ncells)
	copy(s.mfill, s.mcnt[:ncells])
	s.ment = i32Buf(s.ment, slots)
	for slot, cell := range probes {
		e := s.mfill[cell]
		s.mfill[cell] = e + 1
		s.ment[e] = int32(slot)
	}
	s.mregion = i32Buf(s.mregion, slots)
	total := int32(0)
	for cell := 0; cell < ncells; cell++ {
		lo, hi := c.cellRange(int32(cell))
		clen := hi - lo
		for e := s.mcnt[cell]; e < s.mcnt[cell+1]; e++ {
			s.mregion[s.ment[e]] = total
			total += clen
		}
	}
	s.mbuf = f32Buf(s.mbuf, int(total))
	return int(total)
}

func (c *ivfCoarse) clampProbe(nprobe int) int {
	if nprobe < 1 {
		nprobe = 1
	}
	if n := c.cents.Rows(); nprobe > n {
		nprobe = n
	}
	return nprobe
}

func (c *ivfCoarse) centroidBytes() int64 {
	if c.cents == nil {
		return 0
	}
	return c.cents.Bytes()
}

// gatherRows copies store's rows into a fresh arena in grouped order.
func gatherRows(store *linalg.Matrix, order []int32) *linalg.Matrix {
	out := linalg.NewMatrix(store.Dim(), len(order))
	for _, o := range order {
		out.AppendRow(store.Row(int(o)))
	}
	return out
}

// gatherIDs copies ids into grouped order.
func gatherIDs(ids []int64, order []int32) []int64 {
	out := make([]int64, len(order))
	for g, o := range order {
		out[g] = ids[o]
	}
	return out
}

// ivfPayload is what distinguishes the IVF family's members: the
// per-row payload stored grouped cell-major beside the shared coarse
// quantizer and grouped ids, and how a query scores it. Scan arguments
// are per-query float32 views drawn from the search scratch: the query
// itself (raw rows), its SQ8 residual, or its PQ ADC table.
type ivfPayload interface {
	// encode stores the payload of store in grouped order (grouped row g
	// encodes store.Row(order[g])) and returns the build work it charges
	// on top of coarse training.
	encode(store *linalg.Matrix, order []int32, seed int64, workers int) (Stats, error)
	// queryArg returns q's scan argument.
	queryArg(q []float32, s *searchScratch) []float32
	// queryArgs returns every query's scan argument, args[i] answering
	// queries[i], bit-identical to queryArg's.
	queryArgs(queries [][]float32, s *searchScratch) [][]float32
	// scan scores grouped rows [lo, hi) against one scan argument into
	// out; scanMulti scores them against every args[j] into outs[j],
	// bit-identical per argument to scan.
	scan(arg []float32, lo, hi int, out []float32)
	scanMulti(args [][]float32, lo, hi int, outs [][]float32)
	// work is the search work of building the scan arguments of queries
	// queries and scoring rows (query, row) pairs.
	work(queries, rows int64) Stats
	// bytes reports the payload's resident size.
	bytes() int64
}

// ivf is the IVF family: a k-means coarse quantizer over one grouped
// payload. IVF_FLAT stores raw rows, IVF_SQ8 SQ8 codes and IVF_PQ PQ codes
// (Milvus' three IVF indexes); SCANN is the SQ8 payload plus the grouped
// raw rows, against which it re-ranks its best reorder_k quantized
// candidates exactly (SQ8 codes standing in for SCANN's anisotropic
// quantization). Every member searches with the same skeleton: probe the
// nearest cells, scan each probed cell's contiguous payload range, and
// rank the candidates in probe order.
type ivf struct {
	typ     Type
	coarse  *ivfCoarse
	payload ivfPayload
	ids     []int64 // grouped
	// raw holds the grouped raw rows SCANN re-ranks against; nil for the
	// other members.
	raw     *linalg.Matrix
	scratch scratchPool
}

func newIVF(t Type, m linalg.Metric, dim int, p BuildParams) (*ivf, error) {
	nlist := p.NList
	if nlist == 0 {
		nlist = 128
	}
	c, err := newIVFCoarse(m, dim, nlist, p.Seed, p.Workers)
	if err != nil {
		return nil, err
	}
	x := &ivf{typ: t, coarse: c}
	switch t {
	case IVFFlat:
		x.payload = &rawPayload{metric: m}
	case IVFSQ8, SCANN:
		x.payload = &sq8Payload{metric: sq8ScanMetric(m)}
	case IVFPQ:
		x.payload = newPQPayload(m, dim, p)
	}
	return x, nil
}

func (x *ivf) Type() Type { return x.typ }

func (x *ivf) pool() *scratchPool { return &x.scratch }

func (x *ivf) Build(store *linalg.Matrix, ids []int64) error {
	name := strings.ToLower(x.typ.String())
	if store.Rows() != len(ids) {
		return fmt.Errorf("%s: %d vectors but %d ids", name, store.Rows(), len(ids))
	}
	order, err := x.coarse.train(store)
	if err != nil {
		return err
	}
	work, err := x.payload.encode(store, order, x.coarse.seed, x.coarse.workers)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	x.coarse.buildWork.Add(work)
	if x.typ == SCANN {
		x.raw = gatherRows(store, order)
	}
	x.ids = gatherIDs(ids, order)
	return nil
}

// stage returns the collector the cell scans feed: the final top-k, or
// for SCANN the stage-1 collector of its reorder_k best grouped rows.
func (x *ivf) stage(k int, p SearchParams, s *searchScratch) *linalg.TopK {
	if x.raw == nil {
		return s.top.Reset(k)
	}
	reorder := p.ReorderK
	if reorder < k {
		reorder = k
	}
	return s.stage1.Reset(reorder)
}

// offer pushes one scanned cell's distances, in row order, into the
// stage collector: keyed by id, or for SCANN by grouped row.
func (x *ivf) offer(top *linalg.TopK, lo, hi int32, dists []float32) {
	if x.raw == nil {
		top.PushBlock(x.ids[lo:hi], dists)
		return
	}
	for i, d := range dists {
		top.Push(int64(lo)+int64(i), d)
	}
}

// finish turns the stage collector into the final top-k: the collector
// itself, or for SCANN the exact re-rank of its survivors. The survivors
// are gathered into the contiguous s.gath arena and scored with one
// blocked kernel call; gathered rows are exact copies, so each distance
// is bitwise equal to a per-row linalg.Distance.
func (x *ivf) finish(q []float32, k int, stage *linalg.TopK, st *Stats, s *searchScratch) *linalg.TopK {
	if x.raw == nil {
		return stage
	}
	s.neighbors = stage.AppendResults(s.neighbors[:0])
	dim := x.coarse.dim
	n := len(s.neighbors)
	s.gath = f32Buf(s.gath, n*dim)
	for ci, c := range s.neighbors {
		copy(s.gath[ci*dim:(ci+1)*dim], x.raw.Row(int(c.ID)))
	}
	s.dists = f32Buf(s.dists, n)
	linalg.DistanceBlock(x.coarse.metric, q, s.gath[:n*dim], s.dists)
	top := s.top.Reset(k)
	for ci, c := range s.neighbors {
		top.Push(x.ids[int(c.ID)], s.dists[ci])
	}
	accumulate(st, Stats{DistComps: int64(n)})
	return top
}

func (x *ivf) searchWith(q []float32, k int, p SearchParams, st *Stats, s *searchScratch, dst []linalg.Neighbor) []linalg.Neighbor {
	if len(x.ids) == 0 || k < 1 {
		return dst
	}
	cells := x.coarse.probe(q, x.coarse.clampProbe(p.NProbe), st, s)
	arg := x.payload.queryArg(q, s)
	top := x.stage(k, p, s)
	var scanned int64
	for _, cell := range cells {
		lo, hi := x.coarse.cellRange(cell)
		if lo == hi {
			continue
		}
		s.dists = f32Buf(s.dists, int(hi-lo))
		x.payload.scan(arg, int(lo), int(hi), s.dists)
		x.offer(top, lo, hi, s.dists)
		scanned += int64(hi - lo)
	}
	accumulate(st, x.payload.work(1, scanned))
	return x.finish(q, k, top, st, s).AppendResults(dst)
}

func (x *ivf) SearchInto(q []float32, k int, p SearchParams, st *Stats, top *linalg.TopK) {
	searchIntoPooled(x, q, k, p, st, top)
}

// SearchMultiInto shares the payload streaming across the query tile.
// Three phases: (1) batched coarse assignment (probeMulti) and every
// query's scan argument; (2) the probe table is inverted cell→probers
// with a counting sort, and each probed cell's contiguous payload range
// is scanned once by the multi-query kernels for all of its probers,
// materializing every (query, probe-slot) distance region in scratch;
// (3) per query, the regions are replayed in probe order into the stage
// collector, finished as SearchInto finishes, and the sorted results
// offered to the caller's collector — exactly the sequence SearchInto
// produces — so results, ties, and Stats are bit-identical per query
// while each cell's payload is loaded from memory once per tile instead
// of once per probing query.
func (x *ivf) SearchMultiInto(queries [][]float32, k int, p SearchParams, st *Stats, tops []*linalg.TopK) {
	qn := len(queries)
	if len(x.ids) == 0 || k < 1 || qn == 0 {
		return
	}
	if qn == 1 { // a tile of one takes the single-query scan
		x.SearchInto(queries[0], k, p, st, tops[0])
		return
	}
	s := x.scratch.get()
	nprobe := x.coarse.clampProbe(p.NProbe)
	probes := x.coarse.probeMulti(queries, nprobe, st, s)
	args := x.payload.queryArgs(queries, s)
	total := x.coarse.invertProbes(probes, s)

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
			s.mqrows[j] = args[int(slot)/nprobe]
			o := s.mregion[slot]
			s.mouts[j] = s.mbuf[o : o+hi-lo]
		}
		x.payload.scanMulti(s.mqrows, int(lo), int(hi), s.mouts)
	}
	accumulate(st, x.payload.work(int64(qn), int64(total)))

	for qi, q := range queries {
		top := x.stage(k, p, s)
		for pi := 0; pi < nprobe; pi++ {
			slot := qi*nprobe + pi
			lo, hi := x.coarse.cellRange(probes[slot])
			if lo == hi {
				continue
			}
			o := s.mregion[slot]
			x.offer(top, lo, hi, s.mbuf[o:o+hi-lo])
		}
		s.res = x.finish(q, k, top, st, s).AppendResults(s.res[:0])
		dst := tops[qi]
		for _, nb := range s.res {
			dst.Push(nb.ID, nb.Dist)
		}
	}
	clear(s.mqrows[:cap(s.mqrows)]) // don't pin caller query slices in the pool
	x.scratch.put(s)
}

func (x *ivf) MemoryBytes() int64 {
	if len(x.ids) == 0 {
		return 0
	}
	var raw int64
	if x.raw != nil {
		raw = x.raw.Bytes()
	}
	return x.payload.bytes() + raw + x.coarse.centroidBytes() +
		int64(len(x.ids))*4 // grouped row ids
}

func (x *ivf) BuildStats() Stats { return x.coarse.buildWork }

// StoreAdopted: the IVF family copies its payloads into cell-major
// storage; the caller's arena is not retained.
func (x *ivf) StoreAdopted() bool { return false }

// rawPayload is IVF_FLAT's payload: the raw rows, scanned exactly with the
// blocked float kernels, matching Milvus' IVF_FLAT.
type rawPayload struct {
	metric linalg.Metric
	rows   *linalg.Matrix // grouped
}

func (r *rawPayload) encode(store *linalg.Matrix, order []int32, _ int64, _ int) (Stats, error) {
	r.rows = gatherRows(store, order)
	return Stats{}, nil
}

func (r *rawPayload) queryArg(q []float32, _ *searchScratch) []float32 { return q }

func (r *rawPayload) queryArgs(queries [][]float32, _ *searchScratch) [][]float32 { return queries }

func (r *rawPayload) scan(q []float32, lo, hi int, out []float32) {
	dim := r.rows.Dim()
	linalg.DistanceBlock(r.metric, q, r.rows.Data()[lo*dim:hi*dim], out)
}

func (r *rawPayload) scanMulti(queries [][]float32, lo, hi int, outs [][]float32) {
	dim := r.rows.Dim()
	linalg.DistanceMultiScatter(r.metric, queries, r.rows.Data()[lo*dim:hi*dim], outs)
}

func (r *rawPayload) work(_, rows int64) Stats { return Stats{DistComps: rows} }

func (r *rawPayload) bytes() int64 { return r.rows.Bytes() }
