package index

import (
	"fmt"

	"vdtuner/internal/linalg"
)

// flat is the exhaustive index: it scans every stored vector per query.
// It is exact (recall 1.0 by construction) and the slowest option on large
// segments, matching Milvus' FLAT. The scan streams the arena with the
// blocked kernels, one cache-friendly pass.
type flat struct {
	metric  linalg.Metric
	dim     int
	store   *linalg.Matrix
	ids     []int64
	built   bool
	scratch scratchPool
}

func newFlat(m linalg.Metric, dim int) *flat {
	return &flat{metric: m, dim: dim}
}

func (f *flat) Type() Type { return Flat }

func (f *flat) Build(store *linalg.Matrix, ids []int64) error {
	if f.built {
		return fmt.Errorf("flat: Build called twice")
	}
	if store.Rows() != len(ids) {
		return fmt.Errorf("flat: %d vectors but %d ids", store.Rows(), len(ids))
	}
	if store.Dim() != f.dim {
		return fmt.Errorf("flat: store has dim %d, want %d", store.Dim(), f.dim)
	}
	if !store.Packed() {
		return fmt.Errorf("flat: store must be packed (stride == dim)")
	}
	f.store = store
	f.ids = ids
	f.built = true
	return nil
}

// SearchInto offers every stored row directly to the collector, in storage
// order: the exhaustive scan needs no private top-k stage.
func (f *flat) SearchInto(q []float32, k int, _ SearchParams, st *Stats, top *linalg.TopK) {
	if f.store == nil || f.store.Rows() == 0 || k < 1 {
		return
	}
	s := f.scratch.get()
	s.dists = ScanStoreInto(f.metric, q, f.store, f.ids, top, s.dists, st)
	f.scratch.put(s)
}

// SearchMultiInto is the tiled multi-query scan: the whole arena is walked
// in cache-resident row tiles, each tile scored against every query by the
// multi-query blocked kernels (rows stream from memory once per batch, not
// once per query), and each query's distances are offered to its collector
// in ascending row order — exactly SearchInto's candidate sequence, so
// results and tie handling are bit-identical per query.
func (f *flat) SearchMultiInto(queries [][]float32, k int, _ SearchParams, st *Stats, tops []*linalg.TopK) {
	qn := len(queries)
	if f.store == nil || f.store.Rows() == 0 || k < 1 || qn == 0 {
		return
	}
	s := f.scratch.get()
	scanArenaMulti(f.metric, queries, f.store, f.ids, tops, st, s)
	f.scratch.put(s)
}

func (f *flat) MemoryBytes() int64 {
	if f.store == nil {
		return 0
	}
	return f.store.Bytes()
}

func (f *flat) BuildStats() Stats { return Stats{} }

// StoreAdopted: flat retains the caller's arena as its only storage.
func (f *flat) StoreAdopted() bool { return true }

// scanPool serves ScanStoreMultiInto: the subset scans of growing and
// sealing segments share one package-level scratch pool.
var scanPool scratchPool

// ScanStoreInto searches an explicit packed arena (stride == dim)
// exhaustively: it pushes every row into the caller-owned top, in row
// order, and reuses dists as the distance buffer (returned grown to the
// high-water mark; nil is fine). The simulated engine scans its growing
// tail with it; ScanStoreMultiInto is its multi-query form.
func ScanStoreInto(m linalg.Metric, q []float32, store *linalg.Matrix, ids []int64, top *linalg.TopK, dists []float32, st *Stats) []float32 {
	if store == nil || store.Rows() == 0 {
		return dists
	}
	n := store.Rows()
	dists = f32Buf(dists, n)
	linalg.DistanceBlock(m, q, store.Data(), dists)
	for i, d := range dists {
		top.Push(ids[i], d)
	}
	accumulate(st, Stats{DistComps: int64(n)})
	return dists
}

// ScanStoreMultiInto is the multi-query variant of ScanStoreInto: one
// tiled pass over the arena scores every query (rows loaded once, reused
// across the tile of queries) and feeds each query's collector in
// ascending row order, so per query the offered sequence is bit-identical
// to ScanStoreInto's. The engine scans growing and sealing segment tails
// with it; all scratch is pooled, so a steady-state call allocates
// nothing.
func ScanStoreMultiInto(m linalg.Metric, queries [][]float32, store *linalg.Matrix, ids []int64, tops []*linalg.TopK, st *Stats) {
	if store == nil || store.Rows() == 0 || len(queries) == 0 {
		return
	}
	s := scanPool.get()
	scanArenaMulti(m, queries, store, ids, tops, st, s)
	scanPool.put(s)
}

// scanArenaMulti is the shared tiled exhaustive scan: per row tile, the
// multi-query kernel fills a Q×tile distance matrix in scratch, then each
// query pushes its tile of distances in ascending row order. The push
// order over the whole arena is therefore (per query) ascending rows —
// identical to the single-query scans.
func scanArenaMulti(m linalg.Metric, queries [][]float32, store *linalg.Matrix, ids []int64, tops []*linalg.TopK, st *Stats, s *searchScratch) {
	qn := len(queries)
	if qn == 1 { // a tile of one takes the single-query scan
		s.dists = ScanStoreInto(m, queries[0], store, ids, tops[0], s.dists, st)
		return
	}
	n := store.Rows()
	dim := store.Dim()
	data := store.Data()
	tile := linalg.MultiRowTile(dim, qn)
	if tile > n {
		tile = n
	}
	s.mdists = f32Buf(s.mdists, qn*tile)
	s.mouts = f32sBuf(s.mouts, qn)
	for lo := 0; lo < n; lo += tile {
		hi := lo + tile
		if hi > n {
			hi = n
		}
		tl := hi - lo
		for qi := 0; qi < qn; qi++ {
			s.mouts[qi] = s.mdists[qi*tile : qi*tile+tl]
		}
		linalg.DistanceMultiScatter(m, queries, data[lo*dim:hi*dim], s.mouts)
		for qi := 0; qi < qn; qi++ {
			top := tops[qi]
			for i, d := range s.mouts[qi] {
				top.Push(ids[lo+i], d)
			}
		}
	}
	accumulate(st, Stats{DistComps: int64(qn) * int64(n)})
}
