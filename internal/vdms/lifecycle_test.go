package vdms

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
)

// TestSearchHugeKClampedToLiveRows: a k far beyond the live row count
// returns exactly what k = live rows returns — same results, same work
// counters — without sizing the merge grid or any probe's collectors by
// the requested k. Before the clamp, one 2-query batch at k = 2^20 over a
// few hundred rows allocated about 64 MB per shard.
func TestSearchHugeKClampedToLiveRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation byte counts are inflated under -race")
	}
	const dim, n, tail, hugeK = 16, 300, 10, 1 << 20
	vecs := randVecs(n+tail, dim, 151)
	queries := randVecs(2, dim, 152)
	for _, typ := range []index.Type{index.Flat, index.HNSW, index.IVFSQ8, index.SCANN, index.IVFPQ} {
		for _, shards := range []int{1, 4} {
			cfg := flatConfig(shards)
			cfg.IndexType = typ
			cfg.Build.NList = 4
			cfg.Search.NProbe = 4
			c, err := NewCollection(cfg, linalg.L2, dim, n)
			if err != nil {
				t.Fatal(err)
			}
			ids, err := c.Insert(vecs[:n])
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatalf("%v shards=%d: %v", typ, shards, err)
			}
			tailIDs, err := c.Insert(vecs[n:])
			if err != nil {
				t.Fatal(err)
			}
			// A few sealed rows become tombstones (below the compaction
			// trigger) and a few growing rows are pruned.
			var dead []int64
			for i := 0; i < n; i += 37 {
				dead = append(dead, ids[i])
			}
			dead = append(dead, tailIDs[0], tailIDs[3])
			if _, err := c.Delete(dead); err != nil {
				t.Fatal(err)
			}
			if err := c.Compact(); err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if st.Tombstones == 0 || st.GrowingRows == 0 {
				t.Fatalf("%v shards=%d: want tombstones and a growing tail, got %+v", typ, shards, st)
			}
			live := int(st.Rows)

			var wantSt, gotSt index.Stats
			want, err := c.SearchBatch(queries, live, &wantSt)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			got, err := c.SearchBatch(queries, hugeK, &gotSt)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || gotSt != wantSt {
				t.Errorf("%v shards=%d: k=%d differs from k=live=%d (stats %+v vs %+v)", typ, shards, hugeK, live, gotSt, wantSt)
			}
			if len(got[0]) != live {
				t.Errorf("%v shards=%d: huge k returned %d rows, want all %d live rows", typ, shards, len(got[0]), live)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Errorf("%v shards=%d: SearchBatch at k=%d allocated %d bytes over %d live rows", typ, shards, hugeK, alloc, live)
			}
			one, err := c.Search(queries[0], hugeK, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(one, want[0]) {
				t.Errorf("%v shards=%d: Search at huge k differs from the batch", typ, shards)
			}
			c.Close()
		}
	}
}

// liveRowsFound asserts that every vector in vecs self-searches to its id
// (exact FLAT segments, L2 distance 0) and that none of the dead ids is
// ever returned.
func liveRowsFound(t *testing.T, c *Collection, ids []int64, vecs [][]float32, dead map[int64]bool) {
	t.Helper()
	res, err := c.SearchBatch(vecs, 1+len(dead), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		for _, nb := range r {
			if dead[nb.ID] {
				t.Fatalf("deleted id %d returned", nb.ID)
			}
		}
		if !dead[ids[i]] && (len(r) == 0 || r[0].ID != ids[i] || r[0].Dist != 0) {
			t.Fatalf("live id %d not found by its own vector: %v", ids[i], r)
		}
	}
}

// TestLandFailedBuildRequeuesRows drives landLocked's failure branch — the
// one a live seal, a snapshot segment and a replayed seal share: the rows
// go back into growing minus the ones deleted while the build was in
// flight, those tombstones are garbage-collected, the rows stay
// searchable, and Flush reports the build error.
func TestLandFailedBuildRequeuesRows(t *testing.T) {
	const dim, n = 8, 100
	c, err := NewCollection(flatConfig(1), linalg.L2, dim, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vecs := randVecs(n, dim, 161)
	ids, err := c.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	dead := map[int64]bool{}
	var deadIDs, wantGrowing []int64
	for i, id := range ids {
		if i%9 == 4 {
			dead[id] = true
			deadIDs = append(deadIDs, id)
		} else {
			wantGrowing = append(wantGrowing, id)
		}
	}

	injected := errors.New("injected build failure")
	s := c.shards[0]
	s.mu.Lock()
	// A seal whose build is in flight: the rows sit in sealing, where a
	// delete tombstones them instead of pruning.
	store, segIDs := s.takeGrowingLocked()
	seq := s.sealSeq
	s.sealSeq++
	s.sealing = []*sealingSegment{{seq: seq, store: store, ids: segIDs}}
	if got := s.deleteLocked(deadIDs, nil); got != len(deadIDs) || len(s.tombstones) != len(deadIDs) {
		t.Fatalf("deleted %d, %d tombstones; want %d of each", got, len(s.tombstones), len(deadIDs))
	}
	s.sealing = nil
	s.landLocked(store, segIDs, seq, nil, injected)
	if !reflect.DeepEqual(s.growingIDs, wantGrowing) || s.growing.Rows() != len(wantGrowing) {
		t.Errorf("growing after failed build = %v, want %v", s.growingIDs, wantGrowing)
	}
	if len(s.tombstones) != 0 || len(s.sealed) != 0 || s.rows != int64(len(wantGrowing)) {
		t.Errorf("tombstones %d, sealed %d, rows %d; want 0, 0, %d", len(s.tombstones), len(s.sealed), s.rows, len(wantGrowing))
	}
	s.mu.Unlock()

	liveRowsFound(t, c, ids, vecs, dead)
	if err := c.Flush(); !errors.Is(err, injected) {
		t.Fatalf("Flush = %v, want the build error", err)
	}
	// The requeued rows sealed on the next (successful) build.
	if st := c.Stats(); st.Sealed != 1 || st.GrowingRows != 0 || st.Rows != int64(len(wantGrowing)) {
		t.Errorf("after Flush: %+v", st)
	}
	liveRowsFound(t, c, ids, vecs, dead)
}

// TestCommitCompactionFailureKeepsSources drives commitCompactionLocked's
// failure branch — shared by the live compactor and WAL replay: the
// sources stay in place and searchable, later plans skip them, and the
// counters and tombstones are unchanged.
func TestCommitCompactionFailureKeepsSources(t *testing.T) {
	const dim = 8
	c, err := NewCollection(flatConfig(1), linalg.L2, dim, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.shards[0]
	vecs := randVecs(2*s.sealRows, dim, 171)
	ids, err := c.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected compaction failure")
	dead := map[int64]bool{}
	s.mu.Lock()
	if len(s.sealed) != 2 {
		t.Fatalf("want 2 sealed segments, got %d", len(s.sealed))
	}
	seg := s.sealed[0]
	deadIDs := append([]int64(nil), seg.ids[:len(seg.ids)/2]...)
	for _, id := range deadIDs {
		dead[id] = true
	}
	// deleteLocked starts no pass, so the trigger is pending when planned.
	s.deleteLocked(deadIDs, nil)
	plan := s.planCompactionLocked()
	if len(plan) != 1 || len(plan[0].sources) != 1 || plan[0].sources[0] != seg {
		t.Fatalf("want one rewrite task of the tombstoned segment, got %d tasks", len(plan))
	}
	in := s.gatherLocked(plan[0])
	sealedBefore := append([]*sealedSegment(nil), s.sealed...)
	stBefore := s.statsLocked()
	s.commitCompactionLocked(plan[0].sources, nil, in.dropped, injected)
	if !reflect.DeepEqual(s.sealed, sealedBefore) || !seg.noCompact {
		t.Errorf("sources not kept in place and excluded (noCompact=%v)", seg.noCompact)
	}
	if st := s.statsLocked(); st != stBefore {
		t.Errorf("stats changed by a failed commit: %+v, want %+v", st, stBefore)
	}
	if plan := s.planCompactionLocked(); len(plan) != 0 {
		t.Errorf("plan after the failed commit has %d tasks, want the sources skipped", len(plan))
	}
	s.mu.Unlock()

	liveRowsFound(t, c, ids, vecs, dead)
	if err := c.Compact(); !errors.Is(err, injected) {
		t.Fatalf("Compact = %v, want the compaction error", err)
	}
	if st := c.Stats(); st.Tombstones != len(deadIDs) || st.Sealed != 2 || st.CompactedSegments != 0 {
		t.Errorf("after Compact: %+v", st)
	}
	liveRowsFound(t, c, ids, vecs, dead)
}
