// Package vdms implements the vector data management system under tuning:
// a Milvus-like engine with a segmented storage layer, growing/sealed
// segment lifecycle, per-segment ANN indexes, a bounded-consistency window,
// intra-query parallelism, and memory accounting.
//
// The live engine is split along a shard/router boundary: Collection
// (live.go) is a thin router that assigns ids from one atomic counter,
// routes Insert/Delete to shards by a deterministic id hash, and
// scatter-gathers Search/SearchBatch across them with a fixed-order
// merge; shard (shard.go) is the single-lock engine — growing arena,
// sealing/sealed segments, tombstones, compactor, and an independent
// snapshot+WAL pair when durable — so writes, fsyncs, index builds, and
// compaction on different shards never contend.
//
// The engine exposes the 16-dimensional configuration surface of the
// paper (index type + 8 index parameters + 7 system parameters), extended
// with three compaction parameters (trigger ratio, merge fan-in,
// compactor parallelism), two durability parameters (WAL fsync policy,
// group-commit batch; see package persist), and the shard count, and
// reports deterministic simulated performance derived from the real work
// its index structures perform; see the README section "Substitutions and
// the cost model".
package vdms

import (
	"fmt"

	"vdtuner/internal/index"
	"vdtuner/internal/persist"
)

// Config is one complete VDMS configuration: the selected index type, its
// build/search parameters, and the seven system parameters.
type Config struct {
	// IndexType selects the ANN algorithm for sealed segments.
	IndexType index.Type
	// Build carries the index build parameters (nlist, m, nbits, M,
	// efConstruction).
	Build index.BuildParams
	// Search carries the index search parameters (nprobe, ef, reorder_k).
	Search index.SearchParams

	// SegmentMaxSize is the sealed-segment size budget in MB-equivalents
	// (Milvus segment.maxSize), range [100, 2048].
	SegmentMaxSize float64
	// SealProportion is the fraction of SegmentMaxSize at which a growing
	// segment seals (Milvus segment.sealProportion), range [0.05, 1].
	SealProportion float64
	// GracefulTime is the bounded-consistency staleness tolerance in
	// milliseconds (Milvus gracefulTime), range [0, 5000]. Small values
	// force queries to wait for sync.
	GracefulTime float64
	// InsertBufSize is the insert buffer size in MB-equivalents (Milvus
	// insertBufSize), range [64, 2048]. Larger buffers delay flushes,
	// enlarging the unindexed tail and memory footprint.
	InsertBufSize float64
	// Parallelism is the queryNode worker count, range [1, 32]. It is a
	// real knob, not just a cost-model input: it sizes the worker pools
	// of index builds (Open, Collection sealing) and of batched search
	// (SearchBatch). Results are identical for every value — the engine's
	// parallel phases are deterministic (see package parallel) — so the
	// tuner can explore it freely without breaking reproducibility.
	Parallelism int
	// CacheRatio is the fraction of index data kept hot in cache,
	// range [0.05, 1]. Lower values add per-candidate access cost.
	CacheRatio float64
	// FlushInterval is the background flush cadence in seconds,
	// range [1, 120]. It trades unindexed-tail size against background
	// build load.
	FlushInterval float64

	// CompactionTriggerRatio is the tombstone ratio (deleted rows /
	// total rows) at which the compactor rewrites a sealed segment,
	// physically dropping deleted rows and rebuilding its index, range
	// [0.05, 0.95]. Zero means the default (0.2). Lower values reclaim
	// memory eagerly at the cost of more rebuild work.
	CompactionTriggerRatio float64
	// CompactionMergeFanIn is the maximum number of undersized sealed
	// segments merged into one during a compaction pass, range [2, 16].
	// Zero means the default (4).
	CompactionMergeFanIn int
	// CompactionParallelism is the compactor worker-pool size: how many
	// rewrite/merge tasks of one pass run concurrently, range [1, 16].
	// Zero means the default (2). Like every engine pool it is
	// deterministic: any value produces bit-identical segments.
	CompactionParallelism int

	// WALFsyncPolicy selects when write-ahead-log appends of a durable
	// collection become crash-proof: 1 = never (fsync only at
	// checkpoints), 2 = batch (fsync every WALGroupCommit records),
	// 3 = always (group-committed fsync before every acknowledgement).
	// Zero means the default (2). Memory-only collections ignore it. The
	// knob trades acknowledgement latency against the crash-loss window;
	// it never affects search results.
	WALFsyncPolicy int
	// WALGroupCommit is the group-commit batch size under the batch
	// policy: how many buffered records trigger one fsync, range
	// [1, 1024]. Zero means the default (64).
	WALGroupCommit int

	// ShardCount is the number of independently locked shards a live
	// Collection splits into, range [1, 16]. Zero means the default (1).
	// Writes are routed by a deterministic id hash and searches fan out
	// over all shards with a fixed-order merge, so results are identical
	// for every value on layout-independent (FLAT) segments and
	// bit-identical to the pre-sharding engine at 1; higher values buy
	// parallel insert/fsync/compaction throughput at the cost of more,
	// smaller segments. It is a structural knob for durable collections:
	// a data directory is bound to the shard count it was created with.
	ShardCount int

	// Concurrency is the number of in-flight search requests during
	// replay (the paper uses 10). Zero means 10. It is a workload
	// property, not a tuned parameter.
	Concurrency int
}

// DefaultConfig is the paper's "Default" baseline: AUTOINDEX plus stock
// system parameters.
func DefaultConfig() Config {
	return Config{
		IndexType:      index.AutoIndex,
		SegmentMaxSize: 512,
		SealProportion: 0.25,
		GracefulTime:   1000,
		InsertBufSize:  256,
		Parallelism:    4,
		CacheRatio:     0.3,
		FlushInterval:  10,

		CompactionTriggerRatio: 0.2,
		CompactionMergeFanIn:   4,
		CompactionParallelism:  2,

		WALFsyncPolicy: 2,
		WALGroupCommit: 64,

		ShardCount: 1,

		Concurrency: 10,
	}
}

// KnobRange is the documented [Min, Max] range of one system knob.
type KnobRange struct {
	Min, Max float64
	// ZeroDefault marks knobs that accept zero as "use the engine
	// default" (knobs added after configurations were first recorded).
	ZeroDefault bool
}

// SystemKnobRanges is the single source of truth for the system knobs'
// documented ranges, keyed by their Milvus-style names. ValidateConfig
// enforces it, the tuner's space definitions (internal/space) derive
// their bounds from it, and vdmsd validates its flags through it — one
// table instead of three restatements.
var SystemKnobRanges = map[string]KnobRange{
	"segment_maxSize":         {Min: 100, Max: 2048},
	"segment_sealProportion":  {Min: 0.05, Max: 1},
	"gracefulTime":            {Min: 0, Max: 5000},
	"insertBufSize":           {Min: 64, Max: 2048},
	"queryNode_parallelism":   {Min: 1, Max: 32},
	"queryNode_cacheRatio":    {Min: 0.05, Max: 1},
	"flushInterval":           {Min: 1, Max: 120},
	"compaction_triggerRatio": {Min: 0.05, Max: 0.95, ZeroDefault: true},
	"compaction_mergeFanIn":   {Min: 2, Max: 16, ZeroDefault: true},
	"compaction_parallelism":  {Min: 1, Max: 16, ZeroDefault: true},
	"wal_fsyncPolicy":         {Min: 1, Max: 3, ZeroDefault: true},
	"wal_groupCommit":         {Min: 1, Max: 1024, ZeroDefault: true},
	"shard_count":             {Min: 1, Max: 16, ZeroDefault: true},
}

// checkKnob validates one knob value against the shared range table.
func checkKnob(name string, v float64) error {
	r, ok := SystemKnobRanges[name]
	if !ok {
		return fmt.Errorf("vdms: unknown knob %q", name)
	}
	if r.ZeroDefault && v == 0 {
		return nil
	}
	if v < r.Min || v > r.Max {
		return fmt.Errorf("vdms: %s %v outside [%v, %v]", name, v, r.Min, r.Max)
	}
	return nil
}

// ValidateConfig reports configuration errors. Values outside the
// documented ranges are errors rather than silently clamped: the tuner's
// encoder is responsible for staying in range, and out-of-range values
// here indicate a bug. It is the one range check shared by NewCollection,
// Reconfigure, the tuner, and vdmsd's flag validation.
func ValidateConfig(c Config) error {
	for _, k := range [...]struct {
		name string
		v    float64
	}{
		{"segment_maxSize", c.SegmentMaxSize},
		{"segment_sealProportion", c.SealProportion},
		{"gracefulTime", c.GracefulTime},
		{"insertBufSize", c.InsertBufSize},
		{"queryNode_parallelism", float64(c.Parallelism)},
		{"queryNode_cacheRatio", c.CacheRatio},
		{"flushInterval", c.FlushInterval},
		// Knobs below accept zero ("use default") for compatibility with
		// configurations recorded before the corresponding subsystem
		// (compactor, durability, sharding) existed.
		{"compaction_triggerRatio", c.CompactionTriggerRatio},
		{"compaction_mergeFanIn", float64(c.CompactionMergeFanIn)},
		{"compaction_parallelism", float64(c.CompactionParallelism)},
		{"wal_fsyncPolicy", float64(c.WALFsyncPolicy)},
		{"wal_groupCommit", float64(c.WALGroupCommit)},
		{"shard_count", float64(c.ShardCount)},
	} {
		if err := checkKnob(k.name, k.v); err != nil {
			return err
		}
	}
	return nil
}

// Validate reports configuration errors; see ValidateConfig.
func (c *Config) Validate() error { return ValidateConfig(*c) }

// Hot and cold knobs. A live Collection can change configuration without
// downtime (Reconfigure); knobs split by what the change costs:
//
//   - hot knobs take effect by publishing a new immutable config
//     generation that shards read at operation start — search parameters
//     (nprobe/ef/reorder_k), gracefulTime, the WAL fsync policy and
//     group-commit batch, the compaction trigger/fan-in/parallelism,
//     queryNode parallelism, cache ratio, flush interval, and insert
//     buffer size;
//   - cold knobs define the shape of the data on disk and in memory —
//     the index type and its build parameters, segment sizing
//     (segment_maxSize, sealProportion), and the shard count — and take
//     effect via a background migration that rebuilds the shard set and
//     cuts over under the router lock.
//
// coldEqual reports whether two configurations agree on every cold knob
// (a pure hot swap suffices when they do). Comparisons resolve
// zero-means-default knobs first.
func coldEqual(a, b Config) bool {
	return a.IndexType == b.IndexType &&
		a.Build == b.Build &&
		a.SegmentMaxSize == b.SegmentMaxSize &&
		a.SealProportion == b.SealProportion &&
		a.shardCount() == b.shardCount()
}

// GraftColdKnobs returns cfg with every cold knob replaced by from's, so
// the result differs from from only in hot knobs and Reconfigure applies
// it as a pure swap — no migration, no rebuild. The online tuning daemon
// uses it to confine itself to hot knobs unless cold changes were
// explicitly allowed.
func GraftColdKnobs(cfg, from Config) Config {
	cfg.IndexType = from.IndexType
	cfg.Build = from.Build
	cfg.SegmentMaxSize = from.SegmentMaxSize
	cfg.SealProportion = from.SealProportion
	cfg.ShardCount = from.ShardCount
	return cfg
}

func (c *Config) concurrency() int {
	if c.Concurrency <= 0 {
		return 10
	}
	return c.Concurrency
}

func (c *Config) compactionTriggerRatio() float64 {
	if c.CompactionTriggerRatio == 0 {
		return 0.2
	}
	return c.CompactionTriggerRatio
}

func (c *Config) compactionMergeFanIn() int {
	if c.CompactionMergeFanIn == 0 {
		return 4
	}
	return c.CompactionMergeFanIn
}

func (c *Config) compactionParallelism() int {
	if c.CompactionParallelism == 0 {
		return 2
	}
	return c.CompactionParallelism
}

func (c *Config) walFsyncPolicy() persist.SyncPolicy {
	if c.WALFsyncPolicy == 0 {
		return persist.SyncBatch
	}
	return persist.SyncPolicy(c.WALFsyncPolicy)
}

func (c *Config) walGroupCommit() int {
	if c.WALGroupCommit == 0 {
		return 64
	}
	return c.WALGroupCommit
}

func (c *Config) shardCount() int {
	if c.ShardCount == 0 {
		return 1
	}
	return c.ShardCount
}
