package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/server"
	"vdtuner/internal/vdms"
	"vdtuner/internal/workload"
)

const (
	// clients is the number of connections, and of goroutines issuing
	// requests, on every serving workload: the baseline machine's nproc.
	clients = 2
	// setupRuns is how many times a run builds its collection from empty;
	// setup_s is the median.
	setupRuns = 3
	// loadBatch is the rows per Insert call while loading, the same size
	// ingest-mixed writes with.
	loadBatch = 64
	// warmup is the untimed closed-loop time before measuring.
	warmup = time.Second
	// sampleEvery is the Stats sampling period of a traced run.
	sampleEvery = 250 * time.Millisecond
)

// searchWorkload is one closed-loop search workload.
type searchWorkload struct {
	spec  workload.Spec
	cfg   vdms.Config
	batch int     // queries per call: 1 = Search, more = SearchBatch
	floor float64 // recall floor asserted before timing
	tail  float64 // tail percentile of the call latency
	// window is the calls per window the reported tail and throughput
	// are the median of: ten calls beyond the tail percentile, and about
	// a second or more of calls on the baseline machine.
	window int
	relay  int // calls routed through the byte-counting relay (traced)
}

// searchHot: a corpus that fits the per-core L2, HNSW, one shard, one
// Search per call, so per-request costs above the engine dominate.
func searchHot(r *run) error {
	spec := workload.GloVeLike(1)
	spec.Seed = r.seed
	spec.NQ = 1000
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.HNSW
	return serveSearch(r, searchWorkload{spec: spec, cfg: cfg, batch: 1, floor: 0.9, tail: 99, window: 10000, relay: 256})
}

// searchBatch: a corpus beyond L2, IVF_SQ8 over four shards, 64-query
// SearchBatch calls, so the quantized scan kernels dominate.
func searchBatch(r *run) error {
	spec := workload.DeepImageLike(1)
	spec.Seed = r.seed
	spec.NQ = 640
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.IVFSQ8
	cfg.Build.NList = 64
	cfg.Search.NProbe = 16
	cfg.ShardCount = 4
	return serveSearch(r, searchWorkload{spec: spec, cfg: cfg, batch: 64, floor: 0.7, tail: 95, window: 200, relay: 32})
}

// generate builds the seeded dataset and exact ground truth (bench.gen_s;
// never part of setup_s).
func generate(r *run, spec workload.Spec) (*workload.Dataset, error) {
	sp := r.tr.begin("workload.Generate", -1, 0)
	t0 := time.Now()
	ds, err := workload.Generate(spec)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.set("bench.gen_s", time.Since(t0).Seconds())
	raw := ds.RawBytes()
	r.note("dataset %s seed %d: %d rows x %d dims, %.2f MiB raw (%.2f MiB as SQ8 codes; per-core L2 is 4 MiB), %d queries, k=%d",
		ds.Name, spec.Seed, len(ds.Vectors), ds.Dim, float64(raw)/(1<<20), float64(raw)/4/(1<<20), len(ds.Queries), ds.K)
	return ds, nil
}

// load builds a collection from empty: Insert in loadBatch-row calls, then
// Flush, which returns once every seal's index build has finished.
func load(r *run, open func() (*vdms.Collection, error), rows [][]float32) (*vdms.Collection, []int64, float64, error) {
	t0 := time.Now()
	coll, err := open()
	if err != nil {
		return nil, nil, 0, err
	}
	ids := make([]int64, 0, len(rows))
	for lo := 0; lo < len(rows); lo += loadBatch {
		hi := min(lo+loadBatch, len(rows))
		sp := r.tr.begin("vdms.Insert", -1, 0)
		got, err := coll.Insert(rows[lo:hi])
		r.tr.end(sp)
		if err != nil {
			coll.Close()
			return nil, nil, 0, fmt.Errorf("loading: %w", err)
		}
		ids = append(ids, got...)
	}
	sp := r.tr.begin("vdms.Flush", -1, 0)
	err = coll.Flush()
	r.tr.end(sp)
	if err != nil {
		coll.Close()
		return nil, nil, 0, fmt.Errorf("flushing: %w", err)
	}
	return coll, ids, time.Since(t0).Seconds(), nil
}

// setup loads the collection setupRuns times, keeping the last one, and
// reports the median load time as setup_s. open(i) creates the i-th empty
// collection; discard(i) releases what it left behind once closed.
func setup(r *run, open func(i int) (*vdms.Collection, error), discard func(i int), rows [][]float32) (*vdms.Collection, []int64, error) {
	var times []float64
	var coll *vdms.Collection
	var ids []int64
	for i := 0; i < setupRuns; i++ {
		if coll != nil {
			if err := coll.Close(); err != nil {
				return nil, nil, err
			}
			discard(i - 1)
		}
		c, got, secs, err := load(r, func() (*vdms.Collection, error) { return open(i) }, rows)
		if err != nil {
			return nil, nil, err
		}
		coll, ids = c, got
		times = append(times, secs)
	}
	r.set("setup_s", median(times))
	r.note("setup (empty -> %d rows loaded, flushed, seals built): median %.4g s of %v", len(rows), median(times), times)
	if r.traced {
		r.set("vdms.insert_us", median(r.tr.durations("vdms.Insert"))*1000)
	}
	return coll, ids, nil
}

// sameNeighbors reports whether two result lists are bit-identical.
func sameNeighbors(a []linalg.Neighbor, b []linalg.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameWire reports whether a wire answer is bit-identical to an
// in-process one.
func sameWire(got []server.Neighbor, want []linalg.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			return false
		}
	}
	return true
}

// clientLog is what one closed-loop client did.
type clientLog struct {
	lat     []float64 // per call, ms
	at      []float64 // per call, completion time since the pass started, s
	calls   []int     // call index per request, in issue order
	reqs    []int64   // request id per request
	queries int64
	errs    int64
	wrong   int64 // answers that differ from the in-process answer
}

// searchCall is one request of the pool: queries[lo:hi].
type searchCall struct{ lo, hi int }

func sliceCalls(nq, batch int) []searchCall {
	var calls []searchCall
	for lo := 0; lo+batch <= nq; lo += batch {
		calls = append(calls, searchCall{lo, lo + batch})
	}
	return calls
}

// closedLoop runs one goroutine per client, each issuing its next request
// as soon as the previous answer arrives, for dur. Request order comes
// from the run's seed; every answer is checked bit for bit against the
// in-process answer computed before timing.
func closedLoop(r *run, cls []*server.BinClient, ds *workload.Dataset, calls []searchCall, expected [][]linalg.Neighbor, batch int, dur time.Duration, pass int64) ([]clientLog, time.Duration) {
	logs := make([]clientLog, len(cls))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for g := range cls {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, lg := cls[g], &logs[g]
			rng := rand.New(rand.NewSource(r.seed*1_000_003 + pass*16 + int64(g)))
			name := "server.Search"
			if batch > 1 {
				name = "server.SearchBatch"
			}
			for n := int64(0); time.Now().Before(deadline); n++ {
				ci := rng.Intn(len(calls))
				c := calls[ci]
				req := pass<<48 | int64(g)<<40 | n
				sp := r.tr.begin(name, -1, req)
				t0 := time.Now()
				var res [][]server.Neighbor
				var err error
				if batch == 1 {
					var one []server.Neighbor
					one, err = cl.Search(ds.Queries[c.lo], ds.K)
					res = [][]server.Neighbor{one}
				} else {
					res, err = cl.SearchBatch(ds.Queries[c.lo:c.hi], ds.K)
				}
				done := time.Now()
				r.tr.end(sp)
				ms := float64(done.Sub(t0).Nanoseconds()) / 1e6
				ok := err == nil && len(res) == c.hi-c.lo
				for i := 0; ok && i < len(res); i++ {
					ok = sameWire(res[i], expected[c.lo+i])
				}
				switch {
				case err != nil:
					lg.errs++
				case !ok:
					lg.wrong++
				}
				lg.lat = append(lg.lat, ms)
				lg.at = append(lg.at, done.Sub(start).Seconds())
				lg.calls = append(lg.calls, ci)
				lg.reqs = append(lg.reqs, req)
				lg.queries += int64(c.hi - c.lo)
			}
		}(g)
	}
	wg.Wait()
	return logs, time.Since(start)
}

// mergeLogs totals the clients' logs.
func mergeLogs(logs []clientLog) (lat []float64, queries, calls, errs, wrong int64) {
	for _, l := range logs {
		lat = append(lat, l.lat...)
		queries += l.queries
		calls += int64(len(l.lat))
		errs += l.errs
		wrong += l.wrong
	}
	return
}

// segments counts sealed plus growing segments over all shards.
func segments(st vdms.CollectionStats) int {
	n := st.Sealed + st.Sealing
	for _, s := range st.Shards {
		if s.GrowingRows > 0 {
			n++
		}
	}
	return n
}

// sampler polls Collection.Stats during a traced window: the mean growing
// rows, and seals seen as a shard's growing row count dropping.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	growing []float64
	seals   int
}

func startSampler(coll *vdms.Collection) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		var prev []int
		for {
			st := coll.Stats()
			s.growing = append(s.growing, float64(st.GrowingRows))
			for i, sh := range st.Shards {
				if prev != nil && sh.GrowingRows < prev[i] {
					s.seals++
				}
			}
			prev = prev[:0]
			for _, sh := range st.Shards {
				prev = append(prev, sh.GrowingRows)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it.
func (s *sampler) finish() (meanGrowing float64, seals int) {
	close(s.stop)
	<-s.done
	var sum float64
	for _, g := range s.growing {
		sum += g
	}
	return sum / float64(len(s.growing)), s.seals
}

func dialClients(addr string, n int) ([]*server.BinClient, error) {
	var cls []*server.BinClient
	for i := 0; i < n; i++ {
		cl, err := server.DialBinary(addr)
		if err != nil {
			closeClients(cls)
			return nil, err
		}
		cls = append(cls, cl)
	}
	return cls, nil
}

func closeClients(cls []*server.BinClient) {
	for _, cl := range cls {
		cl.Close()
	}
}

func serveSearch(r *run, w searchWorkload) error {
	ds, err := generate(r, w.spec)
	if err != nil {
		return err
	}
	coll, ids, err := setup(r, func(int) (*vdms.Collection, error) {
		return vdms.NewCollection(w.cfg, ds.Metric, ds.Dim, len(ds.Vectors))
	}, func(int) {}, ds.Vectors)
	if err != nil {
		return err
	}
	defer coll.Close()
	inOrder := true
	for i, id := range ids {
		inOrder = inOrder && id == int64(i)
	}
	r.check(inOrder, "load assigned ids 0..%d in insertion order, so ground truth positions are engine ids", len(ids)-1)

	// Before timing: every pool answer in process, batch == sequential on
	// a sample, and the recall floor.
	calls := sliceCalls(len(ds.Queries), w.batch)
	expected := make([][]linalg.Neighbor, len(ds.Queries))
	for _, c := range calls {
		res, err := coll.SearchBatch(ds.Queries[c.lo:c.hi], ds.K, nil)
		if err != nil {
			return err
		}
		copy(expected[c.lo:c.hi], res)
	}
	rng := rand.New(rand.NewSource(r.seed))
	sample := rng.Perm(len(ds.Queries))[:64]
	same := 0
	for _, qi := range sample {
		seq, err := coll.Search(ds.Queries[qi], ds.K, nil)
		if err != nil {
			return err
		}
		if sameNeighbors(seq, expected[qi]) {
			same++
		}
	}
	r.check(same == len(sample), "SearchBatch == sequential Search, bit for bit, on %d of %d sampled queries", same, len(sample))
	var recall float64
	for qi := range ds.Queries {
		recall += ds.Recall(qi, expected[qi])
	}
	recall /= float64(len(ds.Queries))
	r.check(recall >= w.floor, "recall@%d %.4f >= floor %.2f over %d queries", ds.K, recall, w.floor, len(ds.Queries))
	r.set("recall", recall)
	st := coll.Stats()
	raw := float64(st.Rows) * float64(ds.Dim) * 4
	r.set("mem_per_raw", float64(st.MemoryBytes)/raw)
	r.note("collection: %s, %d shards, %d rows, %d segments, memory %.2f MiB (%.3f x raw)",
		st.IndexType, st.ShardCount, st.Rows, segments(st), float64(st.MemoryBytes)/(1<<20), float64(st.MemoryBytes)/raw)

	srv, err := server.NewWithOptions(coll, "127.0.0.1:0", server.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	cls, err := dialClients(srv.Addr(), clients)
	if err != nil {
		return err
	}
	defer closeClients(cls)

	dur := time.Duration(r.seconds * float64(time.Second))
	on := r.tr.on
	r.tr.on = false
	closedLoop(r, cls, ds, calls, expected, w.batch, warmup, 0)
	var logs []clientLog
	var elapsed time.Duration
	if !r.traced {
		logs, elapsed = closedLoop(r, cls, ds, calls, expected, w.batch, dur, 1)
	} else {
		// Untraced half, then traced half: their difference is the
		// tracing overhead.
		base, _ := closedLoop(r, cls, ds, calls, expected, w.batch, dur/2, 1)
		baseLat, _, _, _, _ := mergeLogs(base)
		before := coll.Stats()
		r.tr.on = on
		smp := startSampler(coll)
		logs, elapsed = closedLoop(r, cls, ds, calls, expected, w.batch, dur/2, 2)
		growing, seals := smp.finish()
		after := coll.Stats()
		lat, _, _, _, _ := mergeLogs(logs)
		r.set("bench.trace_overhead", median(lat)/median(baseLat)-1)
		r.set("vdms.growing_rows", growing)
		r.set("vdms.seals", float64(seals))
		r.set("vdms.compaction_passes", float64(after.CompactionPasses-before.CompactionPasses))
		r.set("vdms.reclaimed_rows", float64(after.ReclaimedRows-before.ReclaimedRows))
		r.set("vdms.segments", float64(segments(after)))
		if err := serverLayers(r, coll, srv, ds, calls, logs, w); err != nil {
			return err
		}
		r.notApplicable("vdms.recover_ms", "vdms.evaluate_ms", "vdms.open_ms", "vdms.replay_ms",
			"persist.write_bytes_per_raw", "persist.wal_bytes", "persist.disk_per_raw",
			"core.next_ms", "core.next_last_ms", "core.failed_frac", "bench.read_p50_ms", "bench.lag_tail_ms")
	}
	lat, queries, ncalls, errs, wrong := mergeLogs(logs)
	r.attempted += ncalls
	r.failed += errs + wrong
	r.check(errs == 0, "%d of %d calls failed on the wire", errs, ncalls)
	r.check(wrong == 0, "%d of %d wire answers differ from the in-process answer", wrong, ncalls)
	op := "Search call"
	if w.batch > 1 {
		op = fmt.Sprintf("SearchBatch call (%d queries)", w.batch)
	}
	winLat, winSec := byCount(logs, w.window)
	if len(winLat) == 0 {
		return fmt.Errorf("%s: %d calls do not fill one window of %d", op, ncalls, w.window)
	}
	l, err := summarize(op, lat, winLat, w.tail, false)
	if err != nil {
		return err
	}
	var winQPS []float64
	for _, sec := range winSec {
		winQPS = append(winQPS, float64(w.window*w.batch)/sec)
	}
	r.note("closed loop, %d binary connections: %.1f queries/s over %.2f s (median window %.1f); %s",
		clients, float64(queries)/elapsed.Seconds(), elapsed.Seconds(), median(winQPS), l)
	r.note("%s percentiles (ms): %s", op, percentiles(lat))
	r.set("qps", median(winQPS))
	r.set("ok_frac", 1-float64(errs+wrong)/float64(ncalls))
	r.setLatency(l)
	return nil
}

// serverLayers derives the server, vdms, index and linalg metrics of a
// traced search run: it replays the traced pass's request sequence in
// process (after the TCP pass, with the same number of goroutines),
// routes a short pass through the byte-counting relay, and times the
// kernels.
func serverLayers(r *run, coll *vdms.Collection, srv *server.Server, ds *workload.Dataset, calls []searchCall, logs []clientLog, w searchWorkload) error {
	name := "vdms.Search"
	if w.batch > 1 {
		name = "vdms.SearchBatch"
	}
	stats := make([]index.Stats, len(logs))
	errs := make([]error, len(logs))
	var queries int64
	var wg sync.WaitGroup
	for g := range logs {
		queries += logs[g].queries
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lg := logs[g]
			for i, ci := range lg.calls {
				c := calls[ci]
				sp := r.tr.begin(name, -1, lg.reqs[i])
				var err error
				if w.batch == 1 {
					_, err = coll.Search(ds.Queries[c.lo], ds.K, &stats[g])
				} else {
					_, err = coll.SearchBatch(ds.Queries[c.lo:c.hi], ds.K, &stats[g])
				}
				r.tr.end(sp)
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("in-process replay: %w", err)
		}
	}
	var st index.Stats
	for _, s := range stats {
		st.Add(s)
	}
	wire := "server.Search"
	if w.batch > 1 {
		wire = "server.SearchBatch"
	}
	wireMs := median(r.tr.durations(wire))
	procMs := median(r.tr.durations(name))
	r.set("server.overhead_us", (wireMs-procMs)*1000)
	r.set("vdms.search_us", procMs*1000)
	r.note("in-process replay of the traced pass: %s median %.4g ms vs %.4g ms over TCP", name, procMs, wireMs)

	err := wireBytes(r, srv.Addr(), w.relay, func(cl *server.BinClient, i int) (int, error) {
		c := calls[i%len(calls)]
		var err error
		if w.batch == 1 {
			_, err = cl.Search(ds.Queries[c.lo], ds.K)
		} else {
			_, err = cl.SearchBatch(ds.Queries[c.lo:c.hi], ds.K)
		}
		return c.hi - c.lo, err
	})
	if err != nil {
		return err
	}
	f32, sq8 := kernelCosts(r, ds.Metric, ds.Store(), ds.Queries)
	setKernelLayer(r, f32, sq8, st, int(queries), procMs*1e6/float64(w.batch))
	return nil
}

// wireBytes sends n calls through the byte-counting relay on one fresh
// connection and reports the request and response bytes per query,
// connection preamble included. call issues call i and returns how many
// queries it carried.
func wireBytes(r *run, addr string, n int, call func(cl *server.BinClient, i int) (int, error)) error {
	rl, err := startRelay(addr)
	if err != nil {
		return err
	}
	cl, err := server.DialBinary(rl.addr())
	if err != nil {
		rl.close()
		return err
	}
	queries := 0
	for i := 0; i < n && err == nil; i++ {
		var q int
		q, err = call(cl, i)
		queries += q
	}
	cl.Close()
	rl.close()
	if err != nil {
		return fmt.Errorf("relay pass: %w", err)
	}
	r.set("server.req_bytes_per_query", float64(rl.up.Load())/float64(queries))
	r.set("server.resp_bytes_per_query", float64(rl.down.Load())/float64(queries))
	return nil
}

// byCount merges the clients' calls in completion order and cuts them
// into consecutive windows of per calls, returning each window's call
// latencies and its wall time (from the previous window's last completion,
// or the start of the pass). A partial last window is dropped.
func byCount(logs []clientLog, per int) ([][]float64, []float64) {
	type done struct{ at, ms float64 }
	var all []done
	for _, lg := range logs {
		for i := range lg.at {
			all = append(all, done{lg.at[i], lg.lat[i]})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	var lat [][]float64
	var secs []float64
	prev := 0.0
	for lo := 0; lo+per <= len(all); lo += per {
		win := make([]float64, per)
		for i := range win {
			win[i] = all[lo+i].ms
		}
		end := all[lo+per-1].at
		lat = append(lat, win)
		secs = append(secs, end-prev)
		prev = end
	}
	return lat, secs
}
