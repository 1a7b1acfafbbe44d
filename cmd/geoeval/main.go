// Command geoeval regenerates the paper's tables, figures and ablations
// over synthetic ITDK worlds, one section per entry of
// eval.Experiments (see DESIGN.md §3 and §4 for the experiment index).
//
// Usage:
//
//	geoeval -experiment all              # everything
//	geoeval -experiment table3           # one table
//	geoeval -experiment fig9 -scale 0.5  # smaller worlds
//	geoeval -experiment all -workers 8   # parallel per-suffix learning
//
// Experiments: table1 table2 table3 table4 table5 table6 fig5 fig9
// fig10 fig11 ablation ablation-trace ablation-priors ablation-ppv
// ablation-congruence, or all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hoiho/internal/buildinfo"
	"hoiho/internal/core"
	"hoiho/internal/eval"
	"hoiho/internal/geoloc"
)

func main() {
	names := make([]string, len(eval.Experiments))
	for i, e := range eval.Experiments {
		names[i] = e.Name
	}
	experiment := flag.String("experiment", "all", "which experiment to print: all, or one of "+strings.Join(names, " "))
	scale := flag.Float64("scale", 1.0, "world size multiplier")
	// geoeval generates its own worlds, so it shares only the learning
	// half of the Source flag cluster (-workers, -no-learn).
	src := &geoloc.Source{}
	src.RegisterLearnFlags(flag.CommandLine)
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "geoeval")
		return
	}
	if err := run(os.Stdout, *experiment, *scale, src.CoreConfig(nil)); err != nil {
		fmt.Fprintln(os.Stderr, "geoeval:", err)
		os.Exit(1)
	}
}

// run prints the named experiment, or every one for "all", learning
// the worlds they read with cfg.
func run(w io.Writer, experiment string, scale float64, cfg core.Config) error {
	var selected []eval.Experiment
	worlds := eval.PresetNames[:1]
	for _, e := range eval.Experiments {
		if experiment == "all" || experiment == e.Name {
			selected = append(selected, e)
			if e.AllWorlds {
				worlds = eval.PresetNames
			}
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	s, err := eval.Run(worlds, scale, cfg)
	if err != nil {
		return err
	}
	for _, e := range selected {
		rows, err := e.Rows(s)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if _, err := fmt.Fprintf(w, "\n== %s ==\n%s", e.Header, rows); err != nil {
			return err
		}
	}
	return nil
}
