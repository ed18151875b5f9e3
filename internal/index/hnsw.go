package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
)

// hnsw implements the Hierarchical Navigable Small World graph (Malkov &
// Yashunin), matching Milvus' HNSW index. Build parameters: M (graph
// degree) and efConstruction (build beam width). Search parameter: ef
// (query beam width, clamped up to k).
//
// Vectors live in a flat arena (linalg.Matrix); the beam search tracks
// visited nodes in an epoch-stamped array and draws its frontier and
// result heaps from a reusable scratch, so a steady-state query performs
// no heap allocations beyond the returned neighbor slice.
//
// Build is parallel but deterministic. Nodes are inserted in waves whose
// sizes depend only on the corpus size: every node in a wave plans its
// neighbor lists concurrently against the frozen pre-wave graph (a pure
// read), then the planned links are applied sequentially in node order
// (reverse links, pruning, entry-point updates). Because planning never
// observes intra-wave mutations and the wave schedule ignores the worker
// count, workers=1 and workers=N build byte-identical graphs; per-node
// planning Stats are merged in node order so build accounting is exact.
type hnsw struct {
	metric  linalg.Metric
	dim     int
	m       int // max links per node on upper layers; layer 0 allows 2M
	efCons  int
	seed    int64
	workers int

	store    *linalg.Matrix
	ids      []int64
	links    [][][]int32 // links[node][layer] -> neighbor nodes
	levels   []int
	entry    int
	maxLevel int
	built    bool
	work     Stats

	levelMult float64
	scratch   scratchPool
}

// hnswWaveCap bounds how many nodes plan concurrently per wave. It is a
// constant (never derived from the worker count) so the wave schedule, and
// therefore the built graph, is identical for any Workers value.
const hnswWaveCap = 64

func newHNSW(metric linalg.Metric, dim int, p BuildParams) (*hnsw, error) {
	m := p.HNSWM
	if m == 0 {
		m = 16
	}
	if m < 2 {
		return nil, fmt.Errorf("hnsw: M must be >= 2, got %d", m)
	}
	ef := p.EfConstruction
	if ef == 0 {
		ef = 128
	}
	if ef < m {
		ef = m
	}
	return &hnsw{
		metric: metric, dim: dim, m: m, efCons: ef, seed: p.Seed,
		workers: p.Workers,
		entry:   -1, maxLevel: -1,
		levelMult: 1 / math.Log(float64(m)),
	}, nil
}

func (h *hnsw) Type() Type { return HNSW }

func (h *hnsw) pool() *scratchPool { return &h.scratch }

// dist evaluates one distance and charges it to st.
func (h *hnsw) dist(st *Stats, a, b []float32) float32 {
	st.DistComps++
	return linalg.Distance(h.metric, a, b)
}

// row is the arena accessor for node vectors.
func (h *hnsw) row(i int32) []float32 { return h.store.Row(int(i)) }

func (h *hnsw) Build(store *linalg.Matrix, ids []int64) error {
	if h.built {
		return fmt.Errorf("hnsw: Build called twice")
	}
	if store.Rows() != len(ids) {
		return fmt.Errorf("hnsw: %d vectors but %d ids", store.Rows(), len(ids))
	}
	if store.Dim() != h.dim {
		return fmt.Errorf("hnsw: store has dim %d, want %d", store.Dim(), h.dim)
	}
	if !store.Packed() {
		return fmt.Errorf("hnsw: store must be packed (stride == dim)")
	}
	n := store.Rows()
	h.store = store
	h.ids = ids
	h.links = make([][][]int32, n)
	h.levels = make([]int, n)
	// Draw every level up front, in node order, so the rng consumption is
	// independent of the wave/parallel structure.
	rng := rand.New(rand.NewSource(h.seed))
	for i := range h.levels {
		h.levels[i] = h.randomLevel(rng)
	}

	if n > 0 {
		h.links[0] = make([][]int32, h.levels[0]+1)
		h.entry = 0
		h.maxLevel = h.levels[0]
	}
	workers := parallel.Workers(h.workers)
	plans := make([]hnswPlan, hnswWaveCap)
	// One search scratch per worker, not per plan slot: the scratch's
	// visited array is O(n), so scaling it by the worker count (instead
	// of the 64-slot wave cap) keeps transient build memory bounded by
	// the actual parallelism. Scratch state never influences results, so
	// this does not affect the deterministic wave schedule.
	scratches := make([]searchScratch, parallel.WorkerCount(workers, hnswWaveCap))
	for lo := 1; lo < n; {
		// Wave size grows with the inserted prefix (so early nodes still
		// see a dense graph) up to the fixed cap; it never depends on the
		// worker count.
		wave := lo
		if wave > hnswWaveCap {
			wave = hnswWaveCap
		}
		if lo+wave > n {
			wave = n - lo
		}
		// Plan phase: pure reads of the pre-wave graph, one goroutine per
		// node, private Stats per plan slot and one scratch per worker.
		parallel.WorkerParallel(workers, wave, func(worker, w int) {
			h.plan(lo+w, &plans[w], &scratches[worker])
		})
		// Apply phase: sequential, in node order.
		for w := 0; w < wave; w++ {
			h.work.Add(plans[w].work)
			h.apply(lo+w, &plans[w])
		}
		lo += wave
	}
	h.repairConnectivity()
	h.built = true
	return nil
}

func (h *hnsw) randomLevel(rng *rand.Rand) int {
	u := rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	return int(-math.Log(u) * h.levelMult)
}

// hnswPlan is one node's planned insertion: the neighbor list per layer it
// will adopt, computed against the frozen pre-wave graph, plus the distance
// accounting of the planning search and an entry-point buffer reused
// across waves.
type hnswPlan struct {
	layers [][]int32
	work   Stats
	eps    []int32
}

// plan computes node's neighbor lists against the current (frozen) graph,
// drawing transient search state from scratch (owned by the calling worker
// for the whole wave). It performs no writes to the graph and charges all
// distance work to the plan's private Stats, so plans for a whole wave may
// run concurrently.
func (h *hnsw) plan(node int, pl *hnswPlan, scratch *searchScratch) {
	pl.work = Stats{}
	level := h.levels[node]
	top := level
	if top > h.maxLevel {
		top = h.maxLevel
	}
	pl.layers = pl.layers[:0]
	for l := 0; l <= top; l++ {
		pl.layers = append(pl.layers, nil)
	}
	q := h.row(int32(node))
	ep := h.entry
	for l := h.maxLevel; l > level; l-- {
		ep = h.greedyClosest(q, ep, l, &pl.work)
	}
	pl.eps = append(pl.eps[:0], int32(ep))
	for l := top; l >= 0; l-- {
		cands := h.searchLayer(q, pl.eps, h.efCons, l, &pl.work, scratch)
		// The beam's nodes, in ascending-distance order, seed both the
		// neighbor selection and the next layer's entry points.
		pl.eps = pl.eps[:0]
		for _, c := range cands {
			pl.eps = append(pl.eps, int32(c.ID))
		}
		pl.layers[l] = h.selectNeighbors(q, pl.eps, h.m, &pl.work)
	}
}

// apply installs a planned node: adopts its forward links, adds reverse
// links (pruning overfull neighbors), and advances the entry point. Callers
// run applies sequentially in node order; the pruning work is charged to
// build stats.
func (h *hnsw) apply(node int, pl *hnswPlan) {
	level := h.levels[node]
	h.links[node] = make([][]int32, level+1)
	for l := len(pl.layers) - 1; l >= 0; l-- {
		// selectNeighbors returned a fresh slice, so the graph can adopt
		// it directly.
		selected := pl.layers[l]
		h.links[node][l] = selected
		maxM := h.m
		if l == 0 {
			maxM = 2 * h.m
		}
		for _, nb := range selected {
			h.links[nb][l] = append(h.links[nb][l], int32(node))
			if len(h.links[nb][l]) > maxM {
				h.links[nb][l] = h.pruneNeighbors(int(nb), h.links[nb][l], maxM)
			}
		}
	}
	if level > h.maxLevel {
		h.maxLevel = level
		h.entry = node
	}
}

// greedyClosest walks layer l greedily from ep toward q and returns the
// local minimum, charging distance work to st.
func (h *hnsw) greedyClosest(q []float32, ep, l int, st *Stats) int {
	cur := ep
	curD := h.dist(st, q, h.row(int32(cur)))
	for {
		improved := false
		for _, nb := range h.links[cur][l] {
			if d := h.dist(st, q, h.row(nb)); d < curD {
				cur, curD = int(nb), d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// searchLayer is the beam search of the HNSW paper (Algorithm 2). It
// returns up to ef candidates as (node, dist) pairs sorted by ascending
// distance, charging every distance evaluation to st. The returned slice
// is owned by s and valid until s's next searchLayer. It only reads the
// graph, so concurrent calls with distinct scratches are safe while no
// writer runs.
func (h *hnsw) searchLayer(q []float32, eps []int32, ef, l int, st *Stats, s *searchScratch) []linalg.Neighbor {
	stamp := s.beginVisit(h.store.Rows())
	frontier := s.frontier[:0]
	results := s.stage1.Reset(ef)
	for _, ep := range eps {
		if s.visited[ep] == stamp {
			continue
		}
		s.visited[ep] = stamp
		d := h.dist(st, q, h.row(ep))
		frontier = append(frontier, hnswCand{ep, d})
		results.Push(int64(ep), d)
	}
	// Entry points arrive in ascending-distance order (a previous beam's
	// sorted output, or a single node), so this insertion sort is a
	// near-no-op guard; it is stable, preserving the order of equal
	// distances.
	for i := 1; i < len(frontier); i++ {
		for j := i; j > 0 && frontier[j].d < frontier[j-1].d; j-- {
			frontier[j], frontier[j-1] = frontier[j-1], frontier[j]
		}
	}
	// head is the frontier's pop cursor: frontier[head:] is the live
	// min-ordered queue, kept sorted by binary-search inserts.
	head := 0
	for head < len(frontier) {
		c := frontier[head]
		head++
		if results.Full() && c.d > results.Worst() {
			break
		}
		for _, nb := range h.links[c.node][l] {
			if s.visited[nb] == stamp {
				continue
			}
			s.visited[nb] = stamp
			d := h.dist(st, q, h.row(nb))
			if !results.Full() || d < results.Worst() {
				results.Push(int64(nb), d)
				// Insert keeping frontier[head:] sorted (small beams,
				// the linear shift is cheaper than heap churn).
				lo, hi := head, len(frontier)
				for lo < hi {
					mid := int(uint(lo+hi) >> 1)
					if frontier[mid].d < d {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				frontier = append(frontier, hnswCand{})
				copy(frontier[lo+1:], frontier[lo:])
				frontier[lo] = hnswCand{nb, d}
			}
		}
	}
	s.frontier = frontier
	s.beamOut = results.AppendResults(s.beamOut[:0])
	return s.beamOut
}

// selectNeighbors keeps up to m diverse candidates using the HNSW
// paper's Algorithm 4 heuristic: a candidate (scanned in ascending
// distance to q) is kept only when it is closer to q than to every
// already-kept neighbor, which preserves graph connectivity across
// cluster boundaries. Remaining slots are filled with the closest
// rejected candidates, mirroring hnswlib's keepPrunedConnections.
func (h *hnsw) selectNeighbors(q []float32, cands []int32, m int, st *Stats) []int32 {
	if len(cands) <= m {
		out := make([]int32, len(cands))
		copy(out, cands)
		return out
	}
	out := make([]int32, 0, m)
	var rejected []int32
	for _, c := range cands {
		if len(out) >= m {
			break
		}
		dq := h.dist(st, q, h.row(c))
		keep := true
		for _, s := range out {
			if h.dist(st, h.row(c), h.row(s)) < dq {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, c)
		} else {
			rejected = append(rejected, c)
		}
	}
	for _, c := range rejected {
		if len(out) >= m {
			break
		}
		out = append(out, c)
	}
	return out
}

// pruneNeighbors trims node's link list to maxM diverse neighbors (the
// same Algorithm 4 heuristic applied with the node itself as the query).
// It runs only in the sequential apply/repair phases and charges h.work.
func (h *hnsw) pruneNeighbors(node int, nbs []int32, maxM int) []int32 {
	v := h.row(int32(node))
	sort.Slice(nbs, func(i, j int) bool {
		return h.dist(&h.work, v, h.row(nbs[i])) < h.dist(&h.work, v, h.row(nbs[j]))
	})
	return h.selectNeighbors(v, nbs, maxM, &h.work)
}

// repairConnectivity links any layer-0 node unreachable from the entry
// point to its nearest reachable node. Distance-based pruning can orphan
// nodes (it may drop a node's only inbound edge); orphans would be
// permanently unfindable, so the build pays a small extra cost to
// reconnect them. The work is charged to build stats.
func (h *hnsw) repairConnectivity() {
	n := h.store.Rows()
	if n == 0 || h.entry < 0 {
		return
	}
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	queue = append(queue, int32(h.entry))
	visited[h.entry] = true
	reachable := make([]int32, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		reachable = append(reachable, u)
		for _, nb := range h.links[u][0] {
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	for u := 0; u < n; u++ {
		if visited[u] {
			continue
		}
		// Link u to its nearest already-reachable node, bidirectionally,
		// then absorb u's component.
		best := reachable[0]
		bestD := h.dist(&h.work, h.row(int32(u)), h.row(best))
		for _, r := range reachable[1:] {
			if d := h.dist(&h.work, h.row(int32(u)), h.row(r)); d < bestD {
				best, bestD = r, d
			}
		}
		h.links[u][0] = append(h.links[u][0], best)
		h.links[best][0] = append(h.links[best][0], int32(u))
		queue = append(queue[:0], int32(u))
		visited[u] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			reachable = append(reachable, v)
			for _, nb := range h.links[v][0] {
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
}

func (h *hnsw) searchWith(q []float32, k int, p SearchParams, st *Stats, s *searchScratch, dst []linalg.Neighbor) []linalg.Neighbor {
	if h.store == nil || h.store.Rows() == 0 || k < 1 || h.entry < 0 {
		return dst
	}
	ef := p.Ef
	if ef < k {
		ef = k
	}
	var work Stats
	cur := h.entry
	curD := h.dist(&work, q, h.row(int32(cur)))
	for l := h.maxLevel; l > 0; l-- {
		for {
			improved := false
			for _, nb := range h.links[cur][l] {
				if d := h.dist(&work, q, h.row(nb)); d < curD {
					cur, curD = int(nb), d
					improved = true
				}
			}
			if !improved {
				break
			}
		}
	}
	s.eps = append(s.eps[:0], int32(cur))
	// The layer-0 beam already carries every candidate's exact distance,
	// so the top-k is filled straight from it — no re-computation (and no
	// second DistComps charge) for the returned candidates.
	cands := h.searchLayer(q, s.eps, ef, 0, &work, s)
	top := s.top.Reset(k)
	for _, c := range cands {
		top.Push(h.ids[c.ID], c.Dist)
	}
	accumulate(st, work)
	return top.AppendResults(dst)
}

func (h *hnsw) SearchInto(q []float32, k int, p SearchParams, st *Stats, top *linalg.TopK) {
	searchIntoPooled(h, q, k, p, st, top)
}

// SearchMultiInto runs the queries serially: graph traversal visits
// query-dependent neighborhoods, so there is no shared arena tile for the
// multi-query kernels to amortize.
func (h *hnsw) SearchMultiInto(queries [][]float32, k int, p SearchParams, st *Stats, tops []*linalg.TopK) {
	searchMultiSerial(h, queries, k, p, st, tops)
}

func (h *hnsw) MemoryBytes() int64 {
	var linkCount int64
	for _, perNode := range h.links {
		for _, l := range perNode {
			linkCount += int64(len(l))
		}
	}
	var vecBytes int64
	if h.store != nil {
		vecBytes = h.store.Bytes()
	}
	return vecBytes + linkCount*4
}

func (h *hnsw) BuildStats() Stats { return h.work }

// StoreAdopted: hnsw retains the caller's arena as its vector storage.
func (h *hnsw) StoreAdopted() bool { return true }
