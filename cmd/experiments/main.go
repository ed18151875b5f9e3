// Command experiments regenerates every table and figure of the paper's
// evaluation (see the README section "Substitutions and the cost model"
// for what the engine substitutes for the paper's testbed).
//
// Usage:
//
//	experiments [-exp all] [-scale 0.25] [-iters 60] [-seed 42]
//
// Experiment names: fig1 fig2 fig3 table4 fig6 fig7 fig8 fig9 fig10
// table5 fig11 fig12 fig13 table6 scalability holistic, or "all".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vdtuner/internal/bench"
	"vdtuner/internal/workload"
)

type experiment struct {
	name string
	run  func(io.Writer, bench.Options) error
}

func wrap[T any](f func(io.Writer, bench.Options) (T, error)) func(io.Writer, bench.Options) error {
	return func(w io.Writer, o bench.Options) error {
		_, err := f(w, o)
		return err
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (comma separated), or 'all'")
	scale := flag.Float64("scale", 0.25, "dataset scale factor (1.0 = full synthetic size)")
	iters := flag.Int("iters", 60, "tuning iterations per method (paper: 200)")
	seed := flag.Int64("seed", 42, "random seed")
	outDir := flag.String("out", "", "also write each experiment's output to <out>/<name>.txt")
	flag.Parse()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	opts := bench.Options{Scale: workload.Scale(*scale), Iters: *iters, Seed: *seed}

	experiments := []experiment{
		{"fig1", wrap(bench.Figure1)},
		{"fig2", wrap(bench.Figure2)},
		{"fig3", func(w io.Writer, o bench.Options) error {
			_, _, err := bench.Figure3(w, o)
			return err
		}},
		{"table4", wrap(bench.Table4)},
		{"fig6", wrap(bench.Figure6)},
		{"fig7", wrap(bench.Figure7)},
		{"fig8", wrap(bench.Figure8)},
		{"fig9", wrap(bench.Figure9)},
		{"fig10", wrap(bench.Figure10)},
		{"table5", wrap(bench.Table5)},
		{"fig11", wrap(bench.Figure11)},
		{"fig12", wrap(bench.Figure12)},
		{"fig13", wrap(bench.Figure13)},
		{"table6", wrap(bench.Table6)},
		{"scalability", wrap(bench.Scalability)},
		{"holistic", wrap(bench.HolisticVsIndividual)},
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(name)] = true
	}
	ranAny := false
	for _, e := range experiments {
		if !want["all"] && !want[e.name] {
			continue
		}
		ranAny = true
		fmt.Printf("=== %s ===\n", e.name)
		var w io.Writer = os.Stdout
		var f *os.File
		if *outDir != "" {
			var err error
			f, err = os.Create(*outDir + "/" + e.name + ".txt")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			w = io.MultiWriter(os.Stdout, f)
		}
		t0 := time.Now()
		if err := e.run(w, opts); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		if f != nil {
			f.Close()
		}
		fmt.Printf("(%s in %.1fs)\n\n", e.name, time.Since(t0).Seconds())
	}
	if !ranAny {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known:", *exp)
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, " %s", e.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
}
