package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/server"
	"vdtuner/internal/vdms"
	"vdtuner/internal/workload"
)

const (
	// ingestFsync is ingest-mixed's durability setting: WAL fsync policy
	// "batch" (2) with a group commit of 64 records.
	ingestFsync = "batch/64"
	// ingestPreload is the corpus loaded before the open loop starts.
	ingestPreload = 30000
	// ingestWriteRate is the write schedule of connection 1, in calls/s:
	// of every six calls, five Insert insertRows rows and one Deletes
	// deleteIDs ids (50 Inserts and 10 Deletes per second). The deletes
	// walk ids upward from 0, enough for about six compaction passes in
	// 20 s; twice as many ids made eighteen passes whose rebuilds moved
	// the write tail by 30% between runs.
	ingestWriteRate = 60.0
	insertRows      = 64
	deleteIDs       = 64
	// ingestReadRate is the SearchBatch schedule of connection 2, in
	// calls/s, each carrying readBatch queries. A batch holds every
	// shard's read lock while it runs, so a write arriving then waits for
	// it. At this rate few writes wait, so the write tail is set by the
	// background seal and compaction builds and the WAL, not by where the
	// waiting share happens to fall: at 10/s to 15/s a fifth to a half of
	// the writes waited, and the write p90 moved by 40-50% between runs
	// as the machine's speed moved the read time.
	ingestReadRate = 2.0
	readBatch      = 16
	// restartSample is how many queries are compared bit for bit across
	// the restart.
	restartSample = 64
)

// ingestMixed: a durable two-shard IVF_SQ8 collection takes an open-loop
// stream of inserts and deletes on one connection while a second
// connection searches on its own schedule; then it is closed and
// recovered.
func ingestMixed(r *run) error {
	writes := int(r.seconds * ingestWriteRate)
	inserts := writes - writes/6
	spec := workload.DeepImageLike(0.5)
	spec.Seed = r.seed
	spec.N = ingestPreload + inserts*insertRows
	spec.NQ = 256
	ds, err := generate(r, spec)
	if err != nil {
		return err
	}
	cfg := vdms.DefaultConfig()
	cfg.IndexType = index.IVFSQ8
	cfg.Build.NList = 64
	cfg.Search.NProbe = 16
	cfg.ShardCount = 2
	cfg.WALFsyncPolicy = 2
	cfg.WALGroupCommit = 64
	r.note("durability: fsync policy batch, group commit %d, filesystem %s", cfg.WALGroupCommit, r.fp.FS)

	root, err := os.MkdirTemp(r.out, "ingest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	dirOf := func(i int) string { return filepath.Join(root, fmt.Sprintf("data-%d", i)) }
	open := func(i int) (*vdms.Collection, error) {
		return vdms.OpenDurable(dirOf(i), cfg, ds.Metric, ds.Dim, spec.N)
	}
	coll, ids, err := setup(r, open, func(i int) { os.RemoveAll(dirOf(i)) }, ds.Vectors[:ingestPreload])
	if err != nil {
		return err
	}
	dir := dirOf(setupRuns - 1)
	closed := false
	defer func() {
		if !closed {
			coll.Close()
		}
	}()
	inOrder := true
	for i, id := range ids {
		inOrder = inOrder && id == int64(i)
	}
	r.check(inOrder, "preload assigned ids 0..%d in insertion order", len(ids)-1)

	srv, err := server.NewWithOptions(coll, "127.0.0.1:0", server.Options{})
	if err != nil {
		return err
	}
	srvClosed := false
	defer func() {
		if !srvClosed {
			srv.Close()
		}
	}()
	cls, err := dialClients(srv.Addr(), clients)
	if err != nil {
		return err
	}
	defer closeClients(cls)

	before := coll.Stats()
	wb0, wbErr := procWriteBytes()
	var smp *sampler
	if r.traced {
		smp = startSampler(coll)
	}
	ol := openLoop(r, cls, ds, writes)
	var growing float64
	var seals int
	if smp != nil {
		growing, seals = smp.finish()
	}
	wb1, _ := procWriteBytes()
	after := coll.Stats()

	// Correctness of the live run.
	r.attempted += int64(len(ol.writeLat) + len(ol.readLat))
	r.failed += ol.errs
	r.check(ol.errs == 0, "%d of %d calls failed on the wire", ol.errs, len(ol.writeLat)+len(ol.readLat))
	r.check(ol.shortDeletes == 0, "%d Delete calls tombstoned fewer ids than they named", ol.shortDeletes)
	r.check(ol.staleHits == 0, "%d search hits returned an id whose delete was acknowledged before the search was sent", ol.staleHits)
	wantRows := int64(ingestPreload) + ol.insertedRows - ol.deletedRows
	r.check(after.Rows == wantRows, "Stats().Rows %d == acknowledged inserts %d - acknowledged deletes %d (+ %d preloaded)",
		after.Rows, ol.insertedRows, ol.deletedRows, ingestPreload)

	// The write tail is the p80: beyond about p90 the writes are those
	// stalled behind background builds, checkpoints, search read locks and
	// the disk, and on a shared machine every percentile there moved 25-50%
	// between runs. The notes print p90-p99.
	wl, err := summarize("write (Insert/Delete)", ol.writeLat, [][]float64{ol.writeLat}, 80, true)
	if err != nil {
		return err
	}
	rl, err := summarize(fmt.Sprintf("search (SearchBatch of %d)", readBatch), ol.readLat, [][]float64{ol.readLat}, 75, true)
	if err != nil {
		return err
	}
	lag, err := summarize("generator lag", ol.lag, [][]float64{ol.lag}, 98, false)
	if err != nil {
		return err
	}
	r.note("open loop over %.2f s: %s; %s; %s", ol.elapsed.Seconds(), wl, rl, lag)
	r.note("write percentiles (ms): %s; search percentiles (ms): %s", percentiles(ol.writeLat), percentiles(ol.readLat))
	r.note("engine: %d compaction passes, %d rows reclaimed, %d segments at the end (%d at the start)",
		after.CompactionPasses-before.CompactionPasses, after.ReclaimedRows-before.ReclaimedRows, segments(after), segments(before))
	r.set("qps", float64(len(ol.readLat)*readBatch)/ol.elapsed.Seconds())
	r.set("ok_frac", 1-float64(ol.errs)/float64(len(ol.writeLat)+len(ol.readLat)))

	// Final corpus: recall against brute force, footprint, then restart.
	if err := coll.Flush(); err != nil {
		return err
	}
	truth := liveTruth(ds, ol, ds.Queries)
	var recall float64
	for lo := 0; lo < len(ds.Queries); lo += readBatch {
		res, err := cls[1].SearchBatch(ds.Queries[lo:lo+readBatch], ds.K)
		if err != nil {
			return fmt.Errorf("recall pass: %w", err)
		}
		for i, hits := range res {
			recall += hitRate(hits, truth[lo+i])
		}
	}
	recall /= float64(len(ds.Queries))
	r.check(recall >= 0.7, "recall@%d %.4f >= floor 0.70 over %d queries on the final corpus, against brute force over %d live rows", ds.K, recall, len(ds.Queries), wantRows)
	r.set("recall", recall)
	final := coll.Stats()
	raw := float64(final.Rows) * float64(ds.Dim) * 4
	r.set("mem_per_raw", float64(final.MemoryBytes)/raw)
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.note("footprint: memory %.3f x raw, data dir %.3f x raw, WAL %d bytes", float64(final.MemoryBytes)/raw, float64(disk)/raw, final.WALBytes)

	rng := rand.New(rand.NewSource(r.seed))
	sample := make([][]float32, restartSample)
	for i, qi := range rng.Perm(len(ds.Queries))[:restartSample] {
		sample[i] = ds.Queries[qi]
	}
	pre, err := coll.SearchBatch(sample, ds.K, nil)
	if err != nil {
		return err
	}
	closeClients(cls)
	srvClosed = true
	if err := srv.Close(); err != nil {
		return err
	}
	closed = true
	if err := coll.Close(); err != nil {
		return err
	}
	sp := r.tr.begin("vdms.OpenDurable", -1, 0)
	t0 := time.Now()
	re, err := vdms.OpenDurable(dir, cfg, ds.Metric, ds.Dim, spec.N)
	recoverSec := time.Since(t0).Seconds()
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer re.Close()
	if err := re.Flush(); err != nil {
		return err
	}
	reRows := re.Stats().Rows
	r.check(reRows == final.Rows, "after Close and OpenDurable the row count is %d, was %d", reRows, final.Rows)
	post, err := re.SearchBatch(sample, ds.K, nil)
	if err != nil {
		return err
	}
	same := 0
	for i := range pre {
		if sameNeighbors(pre[i], post[i]) {
			same++
		}
	}
	r.check(same == len(pre), "%d of %d sampled searches are bit-identical across the restart", same, len(pre))
	r.note("recovery (OpenDurable: snapshot + WAL suffix + index rebuild): %.4g s", recoverSec)

	if r.traced {
		r.set("vdms.growing_rows", growing)
		r.set("vdms.seals", float64(seals))
		r.set("vdms.compaction_passes", float64(after.CompactionPasses-before.CompactionPasses))
		r.set("vdms.reclaimed_rows", float64(after.ReclaimedRows-before.ReclaimedRows))
		r.set("vdms.segments", float64(segments(after)))
		r.set("vdms.recover_ms", recoverSec*1000)
		if wbErr != nil {
			return wbErr
		}
		r.set("persist.write_bytes_per_raw", float64(wb1-wb0)/float64(ol.insertedRows*int64(ds.Dim)*4))
		r.set("persist.wal_bytes", float64(final.WALBytes))
		r.set("persist.disk_per_raw", float64(disk)/raw)
		r.set("bench.read_p50_ms", rl.p50)
		r.set("bench.lag_tail_ms", lag.tailMs)
		r.set("bench.trace_overhead", traceOverhead(wl.p50, 1))
		if err := ingestLayers(r, re, ds, ol); err != nil {
			return err
		}
		r.notApplicable("vdms.evaluate_ms", "vdms.open_ms", "vdms.replay_ms",
			"core.next_ms", "core.next_last_ms", "core.failed_frac")
	}
	r.setLatency(wl)
	return nil
}

// openLoopLog is what the two open-loop connections did.
type openLoopLog struct {
	writeLat, readLat, lag []float64 // ms; latencies timed from when due
	readCalls              []int     // query offset of each SearchBatch
	insertedIDs            []int64   // in insert order
	insertedRows           int64
	deletedRows            int64
	deletedUpTo            int64 // ids below it are deleted
	errs                   int64
	shortDeletes           int64
	staleHits              int64
	elapsed                time.Duration
}

// openLoop runs the fixed write and read schedules, one goroutine and one
// connection each, starting together. A call is sent when due, or at once
// if the previous call on its connection ran late; its latency counts from
// when it was due.
func openLoop(r *run, cls []*server.BinClient, ds *workload.Dataset, writes int) *openLoopLog {
	ol := &openLoopLog{}
	reads := int(r.seconds * ingestReadRate)
	// acked is the delete watermark: every id below it has an
	// acknowledged delete. A search that read the watermark before it was
	// sent must not return any id below it.
	var acked atomic.Int64
	var mu sync.Mutex // guards lag, which both schedules append to
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	schedule := func(n int, rate float64, call func(i int)) []float64 {
		lat := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late := float64(time.Since(due).Nanoseconds()) / 1e6
			mu.Lock()
			ol.lag = append(ol.lag, late)
			mu.Unlock()
			call(i)
			lat = append(lat, float64(time.Since(due).Nanoseconds())/1e6)
		}
		return lat
	}
	var werrs, rerrs int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		cl := cls[0]
		next := ingestPreload // next dataset row to insert
		var nextDel int64
		ol.writeLat = schedule(writes, ingestWriteRate, func(i int) {
			if i%6 == 5 {
				ids := make([]int64, deleteIDs)
				for j := range ids {
					ids[j] = nextDel + int64(j)
				}
				sp := r.tr.begin("server.Delete", -1, int64(i))
				n, err := cl.Delete(ids)
				r.tr.end(sp)
				if err != nil {
					werrs++
					return
				}
				if n != len(ids) {
					ol.shortDeletes++
				}
				nextDel += deleteIDs
				ol.deletedRows += int64(n)
				acked.Store(nextDel)
				return
			}
			rows := ds.Vectors[next : next+insertRows]
			sp := r.tr.begin("server.Insert", -1, int64(i))
			got, err := cl.Insert(rows)
			r.tr.end(sp)
			if err != nil || len(got) != len(rows) {
				werrs++
				return
			}
			next += insertRows
			ol.insertedIDs = append(ol.insertedIDs, got...)
			ol.insertedRows += int64(len(got))
		})
		ol.deletedUpTo = nextDel
	}()
	go func() {
		defer wg.Done()
		cl := cls[1]
		rng := rand.New(rand.NewSource(r.seed*1_000_003 + 7))
		offsets := len(ds.Queries) / readBatch
		ol.readLat = schedule(reads, ingestReadRate, func(i int) {
			lo := rng.Intn(offsets) * readBatch
			ol.readCalls = append(ol.readCalls, lo)
			watermark := acked.Load()
			sp := r.tr.begin("server.SearchBatch", -1, int64(i))
			res, err := cl.SearchBatch(ds.Queries[lo:lo+readBatch], ds.K)
			r.tr.end(sp)
			if err != nil || len(res) != readBatch {
				rerrs++
				return
			}
			for _, hits := range res {
				for _, h := range hits {
					if h.ID < watermark {
						ol.staleHits++
					}
				}
			}
		})
	}()
	wg.Wait()
	ol.elapsed = time.Since(start)
	ol.errs = werrs + rerrs
	return ol
}

// liveTruth computes the exact top-k ids of each query over the rows that
// are live after the run: preloaded rows not deleted, plus every
// acknowledged insert.
func liveTruth(ds *workload.Dataset, ol *openLoopLog, queries [][]float32) [][]int64 {
	type row struct {
		id  int64
		vec []float32
	}
	var live []row
	for i := ol.deletedUpTo; i < ingestPreload; i++ {
		live = append(live, row{i, ds.Vectors[i]})
	}
	for j, id := range ol.insertedIDs {
		if id >= ol.deletedUpTo {
			live = append(live, row{id, ds.Vectors[ingestPreload+j]})
		}
	}
	out := make([][]int64, len(queries))
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for qi := g; qi < len(queries); qi += clients {
				top := linalg.NewTopK(ds.K)
				for _, rw := range live {
					top.Push(rw.id, linalg.Distance(ds.Metric, queries[qi], rw.vec))
				}
				for _, n := range top.Results() {
					out[qi] = append(out[qi], n.ID)
				}
			}
		}(g)
	}
	wg.Wait()
	return out
}

// hitRate is the fraction of truth found in hits.
func hitRate(hits []server.Neighbor, truth []int64) float64 {
	want := make(map[int64]bool, len(truth))
	for _, id := range truth {
		want[id] = true
	}
	n := 0
	for _, h := range hits {
		if want[h.ID] {
			n++
		}
	}
	return float64(n) / float64(len(truth))
}

// ingestLayers replays the run's read calls on the recovered collection:
// over TCP, then in process (one caller each, so the two see the same
// state and load), for the server overhead and the vdms, index and linalg
// metrics; then through the counting relay for the wire bytes. The corpus
// is the final one, not the one each live read saw.
func ingestLayers(r *run, coll *vdms.Collection, ds *workload.Dataset, ol *openLoopLog) error {
	srv, err := server.NewWithOptions(coll, "127.0.0.1:0", server.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	// An untimed pass first, so neither timed pass pays for a cold
	// collection just after recovery.
	for _, lo := range ol.readCalls {
		if _, err := coll.SearchBatch(ds.Queries[lo:lo+readBatch], ds.K, nil); err != nil {
			return fmt.Errorf("warm-up replay: %w", err)
		}
	}
	cl, err := server.DialBinary(srv.Addr())
	if err != nil {
		return err
	}
	for i, lo := range ol.readCalls {
		sp := r.tr.begin("server.SearchBatch.replay", -1, int64(i))
		_, err := cl.SearchBatch(ds.Queries[lo:lo+readBatch], ds.K)
		r.tr.end(sp)
		if err != nil {
			cl.Close()
			return fmt.Errorf("TCP replay: %w", err)
		}
	}
	cl.Close()
	var st index.Stats
	for i, lo := range ol.readCalls {
		sp := r.tr.begin("vdms.SearchBatch", -1, int64(i))
		_, err := coll.SearchBatch(ds.Queries[lo:lo+readBatch], ds.K, &st)
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("in-process replay: %w", err)
		}
	}
	procMs := median(r.tr.durations("vdms.SearchBatch"))
	r.set("vdms.search_us", procMs*1000)
	r.set("server.overhead_us", (median(r.tr.durations("server.SearchBatch.replay"))-procMs)*1000)
	err = wireBytes(r, srv.Addr(), len(ol.readCalls), func(cl *server.BinClient, i int) (int, error) {
		lo := ol.readCalls[i]
		_, err := cl.SearchBatch(ds.Queries[lo:lo+readBatch], ds.K)
		return readBatch, err
	})
	if err != nil {
		return err
	}
	f32, sq8 := kernelCosts(r, ds.Metric, ds.Store(), ds.Queries)
	setKernelLayer(r, f32, sq8, st, len(ol.readCalls)*readBatch, procMs*1e6/readBatch)
	return nil
}
