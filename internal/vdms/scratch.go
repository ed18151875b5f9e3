package vdms

import (
	"sync/atomic"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
)

// probeScratch is one scatter-gather worker's reusable state for probing
// a single shard with a query tile (shard.searchLocked): per-query
// shard-level collectors (tops values own the warmed heap arrays, topPtr is
// the view the Index.SearchMultiInto contract wants), the flat arena the
// drained results land in, and the per-query views into it. One worker
// owns one probeScratch for a whole fan-out and probes one (shard ×
// query-tile) cell at a time, so a steady-state probe allocates nothing;
// the rows a probe returns alias outBuf and must be consumed (copied into
// the grid or the caller-visible slices) before the worker's next probe.
type probeScratch struct {
	tops   []linalg.TopK
	topPtr []*linalg.TopK
	outBuf []linalg.Neighbor
	outs   [][]linalg.Neighbor
}

// ensure sizes the tile state for a qn-query tile at fetch results per
// query, keeping every warmed buffer.
func (ps *probeScratch) ensure(qn, fetch int) {
	if qn > len(ps.tops) {
		tops := make([]linalg.TopK, qn)
		copy(tops, ps.tops) // keep the warmed heap arrays
		ps.tops = tops
	}
	if qn > cap(ps.topPtr) {
		ps.topPtr = make([]*linalg.TopK, qn)
		ps.outs = make([][]linalg.Neighbor, qn)
	}
	ps.topPtr = ps.topPtr[:qn]
	ps.outs = ps.outs[:qn]
	if cap(ps.outBuf) < qn*fetch {
		ps.outBuf = make([]linalg.Neighbor, qn*fetch)
	}
}

// gatherScratch is the working set of one search grid (Search or
// SearchBatch): per-worker probe scratches, the (query × shard) result
// grid, per-cell stats slots, the per-tile completion counters that drive
// the pipelined merge, and the call's grid parameters. It is pooled on
// the Collection; all buffers grow to the high-water mark and are then
// reused, so the sharded read path re-enters the alloc gate.
type gatherScratch struct {
	// probes[w] is worker w's private probe state.
	probes []probeScratch
	// cells is the Q×S×k result arena: grid cell (qi, si) owns
	// cells[(si*Q+qi)*k : ...+k] and cellLen records how much of it the
	// shard actually filled.
	cells   []linalg.Neighbor
	cellLen []int32
	// stats[cell] is that probe's private work counter; the slots are
	// summed in fixed cell order at the end (integer sums are
	// order-independent, so the accounting equals sequential probing).
	stats []index.Stats
	// pending[ti] counts query tile ti's unfinished shard probes. The
	// worker that decrements it to zero merges every query row in the
	// tile; the atomic ops order that merge after every contributing
	// write.
	pending []atomic.Int32

	// The call's grid: the shards probed, the normalized queries, the
	// caller's result slots, and the tiling. Set by reset, cleared by
	// putGather so a pooled scratch pins no caller data.
	shards      []*shard
	qs          [][]float32
	out         [][]linalg.Neighbor
	k           int
	tile, tiles int
	// probe is probeCell bound to this scratch once, at construction:
	// handing the same func value to every fan-out keeps a one-worker
	// grid (Search at Parallelism 1) free of a per-call closure.
	probe func(w, cell int)
	// one and oneOut are Search's query tile of one and its result slot.
	one    [1][]float32
	oneOut [1][]linalg.Neighbor
}

// getGather checks a gather scratch out of the pool; reset sizes it.
func (c *Collection) getGather() *gatherScratch {
	g, _ := c.gatherPool.Get().(*gatherScratch)
	if g == nil {
		g = &gatherScratch{}
		g.probe = g.probeCell
	}
	return g
}

// reset arms g for one grid: len(qs) queries over len(shards) shards at
// k results per cell, grouped into query tiles of width tile, on the
// given worker count. Stats slots are zeroed and pending counters armed
// per tile; the result grid needs no clearing (cellLen gates every read).
func (g *gatherScratch) reset(shards []*shard, qs [][]float32, out [][]linalg.Neighbor, k, tile, workers int) {
	q, s := len(qs), len(shards)
	g.shards, g.qs, g.out, g.k, g.tile = shards, qs, out, k, tile
	g.tiles = (q + tile - 1) / tile
	if workers > len(g.probes) {
		probes := make([]probeScratch, workers)
		copy(probes, g.probes) // keep the warmed buffers
		g.probes = probes
	}
	cells := q * s
	if cap(g.cells) < cells*k {
		g.cells = make([]linalg.Neighbor, cells*k)
	}
	g.cells = g.cells[:cells*k]
	if cap(g.cellLen) < cells {
		g.cellLen = make([]int32, cells)
	}
	g.cellLen = g.cellLen[:cells]
	if cap(g.stats) < cells {
		g.stats = make([]index.Stats, cells)
	}
	g.stats = g.stats[:cells]
	for i := range g.stats {
		g.stats[i] = index.Stats{}
	}
	if cap(g.pending) < g.tiles {
		g.pending = make([]atomic.Int32, g.tiles)
	}
	g.pending = g.pending[:g.tiles]
	for i := range g.pending {
		g.pending[i].Store(int32(s))
	}
}

func (c *Collection) putGather(g *gatherScratch) {
	g.shards, g.qs, g.out = nil, nil, nil
	g.one[0], g.oneOut[0] = nil, nil
	c.gatherPool.Put(g)
}

// insertScratch is the pooled partition state of a routed Insert: the
// routing pass (owner, counts, cursors) and the per-shard sub-batch views
// carved out of two flat arenas. Nothing here survives the call — shards
// copy rows into their arenas and the WAL frames its own bytes — so the
// buffers are safe to reuse; the vector pointers are cleared on put so a
// pooled scratch does not pin the caller's last batch.
type insertScratch struct {
	owner    []uint8
	counts   []int
	offs     []int
	cur      []int
	idsBuf   []int64
	vecsBuf  [][]float32
	parts    [][]int64
	partVecs [][][]float32
	touched  []int
	errs     []error
}

// getInsert checks an insert scratch out of the pool, sized for an n-row
// batch across s shards. counts come back zeroed; everything else is
// length-set and overwritten by the partition passes.
func (c *Collection) getInsert(n, s int) *insertScratch {
	is, _ := c.insertPool.Get().(*insertScratch)
	if is == nil {
		is = &insertScratch{}
	}
	if cap(is.owner) < n {
		is.owner = make([]uint8, n)
		is.idsBuf = make([]int64, n)
		is.vecsBuf = make([][]float32, n)
	}
	is.owner = is.owner[:n]
	is.idsBuf = is.idsBuf[:n]
	is.vecsBuf = is.vecsBuf[:n]
	if cap(is.counts) < s {
		is.counts = make([]int, s)
		is.offs = make([]int, s)
		is.cur = make([]int, s)
		is.parts = make([][]int64, s)
		is.partVecs = make([][][]float32, s)
		is.touched = make([]int, 0, s)
		is.errs = make([]error, s)
	}
	is.counts = is.counts[:s]
	for i := range is.counts {
		is.counts[i] = 0
	}
	is.offs = is.offs[:s]
	is.cur = is.cur[:s]
	is.parts = is.parts[:s]
	is.partVecs = is.partVecs[:s]
	is.touched = is.touched[:0]
	is.errs = is.errs[:s]
	return is
}

func (c *Collection) putInsert(is *insertScratch) {
	for i := range is.vecsBuf {
		is.vecsBuf[i] = nil
	}
	for i := range is.errs {
		is.errs[i] = nil
	}
	c.insertPool.Put(is)
}
