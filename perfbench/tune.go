package main

import (
	"time"

	"vdtuner/internal/core"
	"vdtuner/internal/index"
	"vdtuner/internal/vdms"
	"vdtuner/internal/workload"
)

const (
	// tuneIterations is the iteration budget of cmd/vdtuner's default run.
	tuneIterations = 60
	// tunerSeed is cmd/vdtuner's default tuner seed.
	tunerSeed = 42
	// tuneSetupRuns is how many default-config evaluations setup_s is the
	// median of.
	tuneSetupRuns = 5
)

// tune runs the cmd/vdtuner loop — core.New, then Next, vdms.Evaluate and
// Observe per iteration — over the CLI's budget on the CLI's default
// problem (GloVeLike(0.25) at its generator seed, tuner seed 42), from one
// goroutine, and reports the recommended configuration.
//
// The problem is fixed rather than drawn from the run's seed: a tuning
// session's path is chaotic in its inputs — across dataset seeds 1-6 the
// recommendation moved between SCANN, IVF_FLAT and IVF_SQ8, best QPS
// between 51k and 80k and memory between 1.07x and 2.44x raw — so
// seed-drawn problems would measure which path was taken, not how fast the
// code takes it. On a fixed problem every run takes the same path, so
// the timings vary only with the machine. The run measures one session,
// whatever --seconds says.
func tune(r *run) error {
	ds, err := generate(r, workload.GloVeLike(0.25))
	if err != nil {
		return err
	}

	// Setup: the default-configuration evaluation the CLI runs first.
	var setupTimes []float64
	var def vdms.Result
	for i := 0; i < tuneSetupRuns; i++ {
		sp := r.tr.begin("vdms.Evaluate", -1, 0)
		t0 := time.Now()
		def = vdms.Evaluate(ds, vdms.DefaultConfig())
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		r.tr.end(sp)
	}
	r.set("setup_s", median(setupTimes))
	r.note("setup (default-config evaluation): median %.4g s of %v; default QPS %.1f recall %.4f", median(setupTimes), setupTimes, def.QPS, def.Recall)
	if def.Failed {
		r.check(false, "the default configuration evaluates (%s)", def.FailReason)
		return nil
	}

	tn := core.New(core.Options{Seed: tunerSeed})
	var iterMs []float64
	var failed int
	var replay index.Stats
	var replayQueries, segs int
	start := time.Now()
	for i := 0; i < tuneIterations; i++ {
		req := int64(i)
		it := r.tr.begin("bench.iteration", -1, req)
		t0 := time.Now()
		sp := r.tr.begin("core.Next", it, req)
		cfg := tn.Next()
		r.tr.end(sp)
		sp = r.tr.begin("vdms.Evaluate", it, req)
		res := vdms.Evaluate(ds, cfg)
		r.tr.end(sp)
		sp = r.tr.begin("core.Observe", it, req)
		tn.Observe(cfg, res)
		r.tr.end(sp)
		iterMs = append(iterMs, float64(time.Since(t0).Nanoseconds())/1e6)
		if res.Failed {
			failed++
		}
		if r.traced && !res.Failed {
			// Evaluate's two phases timed separately, outside the
			// iteration time: vdms.Open, then the Instance.Search replay.
			n, s, err := openAndReplay(r, ds, cfg, it, req, &replay)
			if err != nil {
				return err
			}
			replayQueries += n
			segs += s
		}
		r.tr.end(it)
	}
	tuneSec := time.Since(start).Seconds()
	r.attempted += tuneIterations

	best, ok := tn.BestUnderRecall(def.Recall - 1e-9)
	r.check(ok, "the tuner found a configuration with recall >= the default's %.4f", def.Recall)
	if !ok {
		return nil
	}
	r.check(best.Result.Recall >= def.Recall, "recommended %s recall %.4f >= default recall %.4f", best.Config.IndexType, best.Result.Recall, def.Recall)
	again := vdms.Evaluate(ds, best.Config)
	r.check(again == best.Result, "re-evaluating the recommended configuration reproduces its result exactly")
	l, err := summarize("tuner iteration", iterMs, [][]float64{iterMs}, 80, false)
	if err != nil {
		return err
	}
	r.note("tuning: %d iterations in %.4g s, %d failed evaluations; %s", tuneIterations, tuneSec, failed, l)
	r.note("recommended %s: QPS %.1f (default %.1f), recall %.4f, memory %.3f x raw",
		best.Config.IndexType, best.Result.QPS, def.QPS, best.Result.Recall, float64(best.Result.MemoryBytes)/float64(ds.RawBytes()))
	r.set("qps", best.Result.QPS)
	r.set("recall", best.Result.Recall)
	r.set("mem_per_raw", float64(best.Result.MemoryBytes)/float64(ds.RawBytes()))
	r.set("ok_frac", 1)

	if r.traced {
		next := r.tr.durations("core.Next")
		r.set("core.next_ms", median(next))
		r.set("core.next_last_ms", median(next[len(next)-len(next)/10:]))
		r.set("core.failed_frac", float64(failed)/tuneIterations)
		evals := r.tr.durations("vdms.Evaluate")
		r.set("vdms.evaluate_ms", median(evals[tuneSetupRuns:]))
		r.set("vdms.open_ms", median(r.tr.durations("vdms.Open")))
		r.set("vdms.replay_ms", median(r.tr.durations("vdms.replay")))
		searchMs := median(r.tr.durations("vdms.InstanceSearch"))
		r.set("vdms.search_us", searchMs*1000)
		r.set("vdms.segments", float64(segs)/float64(tuneIterations-failed))
		f32, sq8 := kernelCosts(r, ds.Metric, ds.Store(), ds.Queries)
		setKernelLayer(r, f32, sq8, replay, replayQueries, searchMs*1e6)
		r.set("bench.trace_overhead", traceOverhead(median(iterMs), 4)) // iteration, Next, Evaluate, Observe
		r.notApplicable("server.overhead_us", "server.req_bytes_per_query", "server.resp_bytes_per_query",
			"vdms.insert_us", "vdms.growing_rows", "vdms.seals", "vdms.compaction_passes", "vdms.reclaimed_rows",
			"vdms.recover_ms", "persist.write_bytes_per_raw", "persist.wal_bytes", "persist.disk_per_raw",
			"bench.read_p50_ms", "bench.lag_tail_ms")
	}
	r.setLatency(l)
	return nil
}

// openAndReplay times Evaluate's phases for one configuration: vdms.Open,
// then one Instance.Search per query, accumulating the index work counts.
// It returns the queries replayed and the instance's segment count.
func openAndReplay(r *run, ds *workload.Dataset, cfg vdms.Config, parent int, req int64, st *index.Stats) (int, int, error) {
	sp := r.tr.begin("vdms.Open", parent, req)
	inst, err := vdms.Open(ds, cfg)
	r.tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	rp := r.tr.begin("vdms.replay", parent, req)
	for _, q := range ds.Queries {
		sp := r.tr.begin("vdms.InstanceSearch", rp, req)
		inst.Search(q, ds.K, st)
		r.tr.end(sp)
	}
	r.tr.end(rp)
	return len(ds.Queries), inst.Segments(), nil
}

// traceOverhead estimates the tracing cost of a run whose traced and
// untraced passes are not separable: the measured cost of one span
// (begin plus end) times the spans per operation, over the operation's
// median time.
func traceOverhead(opMs, spansPerOp float64) float64 {
	probe := newTracer(true)
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probe.end(probe.begin("probe", -1, 0))
	}
	perSpanMs := float64(time.Since(t0).Nanoseconds()) / 1e6 / n
	return perSpanMs * spansPerOp / opMs
}
