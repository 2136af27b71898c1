// Command experiments regenerates the paper's evaluation artifacts
// (Figures 1-4 of §4, the §2.3.3 space accounting, the §1.3 counter-vs-
// sketch comparison, and the error-guarantee validation) from synthetic
// workloads. README's "Reproducing the paper" lists the commands.
//
// Usage:
//
//	experiments [flags] figure1|figure2|figure3|figure4|space|accuracy|initial|all
//
// Flags scale the workloads; defaults take a few minutes total on a
// laptop. -quick runs a seconds-scale smoke configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		packets = flag.Int("packets", 0, "stream length (0 = config default)")
		sources = flag.Int("sources", 0, "approx distinct items (0 = config default)")
		reps    = flag.Int("reps", 0, "timing repetitions (0 = config default)")
		pairs   = flag.Int("pairs", 0, "merge pairs for figure4 (0 = config default)")
		ksFlag  = flag.String("ks", "", "comma-separated counter budgets (default paper ladder)")
		quick   = flag.Bool("quick", false, "seconds-scale smoke configuration")
		seed    = flag.Uint64("seed", 0, "workload seed (0 = default)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] figure1|figure2|figure3|figure4|space|accuracy|initial|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *packets > 0 {
		cfg.Packets = *packets
	}
	if *sources > 0 {
		cfg.DistinctSources = *sources
	}
	if *reps > 0 {
		cfg.Repetitions = *reps
	}
	if *pairs > 0 {
		cfg.MergePairs = *pairs
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *ksFlag != "" {
		ks, err := parseKs(*ksFlag)
		if err != nil {
			fatal(err)
		}
		cfg.Ks = ks
	}

	run := flag.Arg(0)
	out := os.Stdout
	runFigure12 := func() {
		eqCtr, eqSpace, err := experiments.Figure1And2(cfg)
		if err != nil {
			fatal(err)
		}
		experiments.PrintRunRows(out, "Figures 1-2, equal counters", eqCtr)
		fmt.Fprintln(out)
		experiments.PrintRunRows(out, "Figures 1-2, equal space (SMED byte budget)", eqSpace)
		fmt.Fprintln(out)
		experiments.PrintSpeedups(out, eqSpace)
	}
	switch run {
	case "figure1", "figure2":
		runFigure12()
	case "figure3":
		rows, err := experiments.Figure3(cfg, nil)
		if err != nil {
			fatal(err)
		}
		experiments.PrintRunRows(out, "Figure 3: decrement quantile sweep", rows)
	case "figure4":
		rows, err := experiments.Figure4(cfg, nil)
		if err != nil {
			fatal(err)
		}
		experiments.PrintMergeRows(out, rows)
	case "space":
		rows, err := experiments.SpaceTable(cfg)
		if err != nil {
			fatal(err)
		}
		experiments.PrintSpaceRows(out, rows)
	case "accuracy":
		rows, err := experiments.AccuracyTable(cfg)
		if err != nil {
			fatal(err)
		}
		experiments.PrintAccuracyRows(out, rows)
	case "initial":
		rows, err := experiments.InitialExperiments(cfg)
		if err != nil {
			fatal(err)
		}
		experiments.PrintInitialRows(out, rows)
	case "all":
		runFigure12()
		fmt.Fprintln(out)
		f3, err := experiments.Figure3(cfg, nil)
		if err != nil {
			fatal(err)
		}
		experiments.PrintRunRows(out, "Figure 3: decrement quantile sweep", f3)
		fmt.Fprintln(out)
		f4, err := experiments.Figure4(cfg, nil)
		if err != nil {
			fatal(err)
		}
		experiments.PrintMergeRows(out, f4)
		fmt.Fprintln(out)
		sp, err := experiments.SpaceTable(cfg)
		if err != nil {
			fatal(err)
		}
		experiments.PrintSpaceRows(out, sp)
		fmt.Fprintln(out)
		acc, err := experiments.AccuracyTable(cfg)
		if err != nil {
			fatal(err)
		}
		experiments.PrintAccuracyRows(out, acc)
		fmt.Fprintln(out)
		init, err := experiments.InitialExperiments(cfg)
		if err != nil {
			fatal(err)
		}
		experiments.PrintInitialRows(out, init)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func parseKs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	ks := make([]int, 0, len(parts))
	for _, p := range parts {
		k, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || k < 8 {
			return nil, fmt.Errorf("invalid k %q", p)
		}
		ks = append(ks, k)
	}
	return ks, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
