// Command paperfigs regenerates every table and figure of the paper's
// evaluation (and this reproduction's extension experiments), printing
// aligned text tables and optionally writing CSV files for plotting.
//
// Usage:
//
//	paperfigs [-only f4-small,f7-large] [-hours 100] [-trials 5]
//	          [-seed 1] [-out results/] [-list] [-v]
//
// Defaults run every experiment at 100 simulated hours × 5 trials per
// point — a laptop-scale setting whose shapes match the paper's
// 1000-hour design (see EXPERIMENTS.md). Pass -hours 1000 for the
// paper's full scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"semicont/internal/experiments"
	"semicont/internal/report"
	"semicont/internal/sweep"
)

func main() {
	var (
		only   = flag.String("only", "", "comma-separated experiment ids (default: all)")
		hours  = flag.Float64("hours", 100, "simulated hours per trial")
		trials = flag.Int("trials", 5, "trials per data point")
		seed   = flag.Uint64("seed", 1, "base random seed")
		outDir = flag.String("out", "", "directory for CSV output (empty: no CSV)")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		verb   = flag.Bool("v", false, "print per-point progress")
		par    = flag.Int("parallel", 0, "max concurrent simulation jobs, shared by all experiments (0 = GOMAXPROCS); output is identical at any setting")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-14s %s\n", e.ID, e.Description)
		}
		return
	}

	entries := experiments.Registry()
	if *only != "" {
		var selected []experiments.Entry
		for _, id := range strings.Split(*only, ",") {
			e, err := experiments.Find(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, e)
		}
		entries = selected
	}

	opts := experiments.Options{
		HorizonHours: *hours,
		Trials:       *trials,
		Seed:         *seed,
		Pool:         sweep.New(*par),
	}
	if *verb {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	for _, e := range entries {
		start := time.Now()
		fmt.Printf("== %s: %s\n", e.ID, e.Description)
		out, err := e.Run(opts)
		if err != nil {
			fatal(err)
		}
		if err := renderOutput(os.Stdout, out, *outDir); err != nil {
			fatal(err)
		}
		fmt.Printf("(%s done in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// renderOutput prints one experiment's tables and figures to w as
// aligned text; when csvDir is non-empty every figure is also written
// there as <figure id>.csv. It is the whole presentation layer of the
// command, factored out so the rendering is testable against goldens.
func renderOutput(w io.Writer, out *experiments.Output, csvDir string) error {
	for _, tbl := range out.Tables {
		if err := tbl.Write(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, fig := range out.Figures {
		tbl, err := report.SeriesTable(fig.Title, fig.XLabel, fig.Series)
		if err != nil {
			return err
		}
		if err := tbl.Write(w); err != nil {
			return err
		}
		if fig.Notes != "" {
			fmt.Fprintf(w, "note: %s\n", fig.Notes)
		}
		fmt.Fprintln(w)
		if csvDir != "" {
			if err := writeCSV(w, csvDir, fig); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSV(w io.Writer, dir string, fig experiments.Figure) error {
	path := filepath.Join(dir, fig.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.WriteSeriesCSV(f, fig.XLabel, fig.Series); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperfigs:", err)
	os.Exit(1)
}
