package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords loads a results.jsonl file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// compareFiles prints, per workload, mode and metric, the median of each
// side and the change between them, with each side's quartile spread as
// a share of its median. It refuses to compare results whose machine
// fingerprints differ.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldRecs, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return err
	}
	if len(oldRecs) == 0 || len(newRecs) == 0 {
		return fmt.Errorf("nothing to compare: %d and %d records", len(oldRecs), len(newRecs))
	}
	fp := oldRecs[0].Fingerprint
	for _, rec := range append(append([]record(nil), oldRecs...), newRecs...) {
		if rec.Fingerprint != fp {
			return fmt.Errorf("fingerprints differ (%+v vs %+v): results from different machines or builds are not comparable", fp, rec.Fingerprint)
		}
	}
	type key struct {
		workload string
		trace    bool
		metric   string
	}
	values := func(recs []record) map[key][]float64 {
		out := map[key][]float64{}
		for _, rec := range recs {
			for name, m := range rec.Result.Metrics {
				k := key{rec.Workload, rec.Trace, name}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	a, b := values(oldRecs), values(newRecs)
	var keys []key
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		if keys[i].trace != keys[j].trace {
			return !keys[i].trace
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-14s %-30s %14s %7s %14s %7s %9s\n", "workload", "metric", "old median", "spread", "new median", "spread", "change")
	for _, k := range keys {
		ma, mb := median(a[k]), median(b[k])
		change := "n/a"
		if ma != 0 {
			change = fmt.Sprintf("%+.2f%%", (mb/ma-1)*100)
		}
		fmt.Fprintf(w, "%-14s %-30s %14.6g %7s %14.6g %7s %9s\n", k.workload, k.metric, ma, spread(a[k]), mb, spread(b[k]), change)
	}
	return nil
}

// spread is the quartile distance as a share of the median, or "-" with
// fewer than two values.
func spread(xs []float64) string {
	q1, q2, q3, err := quartiles(xs)
	if err != nil || q2 == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", (q3-q1)/q2*100)
}
