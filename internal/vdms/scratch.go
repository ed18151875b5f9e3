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

// partition is the pooled split of one write batch across n shards: the
// per-shard id (and, for inserts, vector) sub-slices in batch order —
// ascending ids within each shard whenever the batch ascends — carved out
// of two flat arenas (count, then fill), so the routing hash runs once per
// row and a steady-state split allocates nothing. touched lists the shards
// that received rows, in an order rotated by the batch's first id, which
// staggers concurrent callers across the shard array instead of convoying
// them all onto shard 0; errs[i] is touched[i]'s outcome. Nothing here
// outlives the write — shards copy rows into their own arenas and the WAL
// frames its own bytes — so the buffers are safe to reuse.
type partition struct {
	owner   []uint8
	counts  []int
	idsBuf  []int64
	vecsBuf [][]float32
	ids     [][]int64
	vecs    [][][]float32
	touched []int
	errs    []error
}

// sized returns buf at length n, reallocating only to grow.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// partition splits ids (and vecs, when non-nil, aligned with ids) across n
// shards by shardOf. The result is pooled: hand it back with
// putPartition.
func (c *Collection) partition(ids []int64, vecs [][]float32, n int) *partition {
	p, _ := c.partitionPool.Get().(*partition)
	if p == nil {
		p = &partition{}
	}
	p.ids, p.vecs = sized(p.ids, n), sized(p.vecs, n)
	if n == 1 {
		// One shard owns the whole batch: no routing, no copy.
		p.ids[0], p.vecs[0] = ids, vecs
	} else {
		p.owner, p.counts = sized(p.owner, len(ids)), sized(p.counts, n)
		clear(p.counts)
		for i, id := range ids {
			si := shardOf(id, n)
			p.owner[i] = uint8(si)
			p.counts[si]++
		}
		p.idsBuf = sized(p.idsBuf, len(ids))
		if vecs != nil {
			p.vecsBuf = sized(p.vecsBuf, len(ids))
		}
		off := 0
		for si, cnt := range p.counts {
			p.ids[si] = p.idsBuf[off : off : off+cnt]
			p.vecs[si] = nil
			if vecs != nil {
				p.vecs[si] = p.vecsBuf[off : off : off+cnt]
			}
			off += cnt
		}
		for i, id := range ids {
			si := p.owner[i]
			p.ids[si] = append(p.ids[si], id)
			if vecs != nil {
				p.vecs[si] = append(p.vecs[si], vecs[i])
			}
		}
	}
	p.touched = p.touched[:0]
	start := 0
	if len(ids) > 0 {
		start = int(uint64(ids[0]) % uint64(n))
	}
	for o := 0; o < n; o++ {
		if si := (start + o) % n; len(p.ids[si]) > 0 {
			p.touched = append(p.touched, si)
		}
	}
	p.errs = sized(p.errs, len(p.touched))
	return p
}

// putPartition returns p to the pool, clearing every slot that could pin
// the caller's batch.
func (c *Collection) putPartition(p *partition) {
	clear(p.ids)
	clear(p.vecs)
	clear(p.vecsBuf)
	clear(p.errs)
	c.partitionPool.Put(p)
}
