// Command perfbench is the repository benchmark: four workloads that drive
// the engine end to end — over real TCP through the binary protocol for
// the three serving workloads, and through the tuner loop for the fourth
// — and a traced mode that breaks each run down by layer (server, vdms,
// index, linalg, persist, core).
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload search-hot --seed 1 --seconds 15 --trace 0
//	perfbench --compare old.jsonl new.jsonl
//
// With --trace 0 the last line of standard output is one JSON object with
// every end-to-end metric; with --trace 1 it carries every per-layer
// metric instead. Lines before it are human-readable notes: the machine
// fingerprint, each latency with its percentile and sample count, and
// every correctness check. A failed correctness check prints
// "correct": false and exits 1. Every run also appends its record to
// <out>/results.jsonl, which --compare reads.
//
// See perfbench/README.md for the workloads, the metric definitions and
// the layer-to-end-to-end map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0). Every workload
// reports every one; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"recall", "fraction"},
	{"mem_per_raw", "bytes/byte"},
	{"ok_frac", "fraction"},
}

// perLayer are the metrics of a traced run (--trace 1). A workload that
// makes no call into a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"server.overhead_us", "us"},
	{"server.req_bytes_per_query", "bytes"},
	{"server.resp_bytes_per_query", "bytes"},
	{"vdms.search_us", "us"},
	{"vdms.insert_us", "us"},
	{"vdms.segments", "count"},
	{"vdms.growing_rows", "rows"},
	{"vdms.seals", "count"},
	{"vdms.compaction_passes", "count"},
	{"vdms.reclaimed_rows", "rows"},
	{"vdms.recover_ms", "ms"},
	{"vdms.evaluate_ms", "ms"},
	{"vdms.open_ms", "ms"},
	{"vdms.replay_ms", "ms"},
	{"index.dist_comps_per_query", "count"},
	{"index.code_comps_per_query", "count"},
	{"index.lookups_per_query", "count"},
	{"linalg.f32_ns_per_dist", "ns"},
	{"linalg.sq8_ns_per_code", "ns"},
	{"linalg.kernel_share", "fraction"},
	{"persist.write_bytes_per_raw", "bytes/byte"},
	{"persist.wal_bytes", "bytes"},
	{"persist.disk_per_raw", "bytes/byte"},
	{"core.next_ms", "ms"},
	{"core.next_last_ms", "ms"},
	{"core.failed_frac", "fraction"},
	{"bench.gen_s", "s"},
	{"bench.read_p50_ms", "ms"},
	{"bench.lag_tail_ms", "ms"},
	{"bench.trace_overhead", "fraction"},
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"search-hot":   searchHot,
	"search-batch": searchBatch,
	"ingest-mixed": ingestMixed,
	"tune":         tune,
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	out      string // directory for results, traces and data dirs
	tr       *tracer
	fp       fingerprint

	metrics    map[string]float64
	attempted  int64
	failed     int64
	violations []string
}

// note prints one human-readable line before the result line.
func (r *run) note(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// check records a correctness violation when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		r.note("check ok: %s", msg)
		return
	}
	r.note("CHECK FAILED: %s", msg)
	r.violations = append(r.violations, msg)
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// setLatency reports an op's median and tail as the p50_ms/tail_ms pair.
func (r *run) setLatency(l latency) {
	r.set("p50_ms", l.p50)
	r.set("tail_ms", l.tailMs)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of results.jsonl.
type record struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Trace       bool        `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	Result      result      `json:"result"`
}

func main() {
	name := flag.String("workload", "", "workload: search-hot, search-batch, ingest-mixed, tune")
	seed := flag.Int64("seed", 1, "workload seed: generates the dataset and the request order")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for results, traces and data directories")
	compare := flag.Bool("compare", false, "compare two results.jsonl files given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: perfbench --compare old.jsonl new.jsonl")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		out:      *out,
		tr:       newTracer(*trace == 1),
		metrics:  map[string]float64{},
	}
	r.fp = takeFingerprint(*out)
	fpJSON, _ := json.Marshal(r.fp) // plain struct of strings and ints: cannot fail
	r.note("fingerprint %s", fpJSON)
	r.note("workload %s seed %d seconds %g trace %d", r.workload, r.seed, r.seconds, *trace)

	total0, steal0, tickErr := cpuTicks()
	if err := drive(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// Steal is the share of CPU time the hypervisor gave other guests: on
	// a shared machine it says how much a run's timings were disturbed.
	if total1, steal1, err := cpuTicks(); err == nil && tickErr == nil && total1 > total0 {
		r.note("cpu steal during the run: %.1f%% of CPU time", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.traced {
		path := filepath.Join(r.out, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			os.Exit(1)
		}
		r.note("trace written to %s", path)
	}
	if err := appendRecord(filepath.Join(r.out, "results.jsonl"), record{
		Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Trace: r.traced, Fingerprint: r.fp, Result: res,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: appending result:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result assembles the output line: every metric of the run's mode, each
// with its unit. A metric the workload did not set is a benchmark bug,
// unless a failed check cut the run short; then the line reports
// "correct": false with the metrics measured so far.
func (r *run) result() (result, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{
		Correct:   len(r.violations) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 && res.Correct {
		return res, fmt.Errorf("workload %s did not report %s", r.workload, strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	return res, nil
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
