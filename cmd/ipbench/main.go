// Command ipbench regenerates every table and figure of the IPComp paper's
// evaluation (§6) on the synthetic dataset suite.
//
// Usage:
//
//	ipbench [-divisor 4] [-rungs 9] [-datasets Density,Wave] <experiment>
//
// where experiment is one of: table2, fig5, fig6, fig7, fig8, fig9, fig10,
// fig11, all. Results print as aligned text tables; EXPERIMENTS.md records
// a reference run next to the paper's reported numbers.
//
// These tables reproduce the paper's orderings (internal/harness tests pin
// them); they are not the repository's performance instrument. Speed,
// ratio and bytes-loaded figures that may be cited come from benchmark/
// (bash benchmark/run.sh, see docs/PERF.md).
//
// Scale note: -divisor 1 uses the paper's dataset shapes (hundreds of MB
// per field, long runtimes); the default 4 shrinks each dimension 4x.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	divisor := flag.Int("divisor", 4, "linear downscale of the paper's dataset shapes")
	rungs := flag.Int("rungs", 9, "bound-ladder length for residual/multi-fidelity baselines")
	datasets := flag.String("datasets", "", "comma-separated dataset subset (default: all six)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ipbench [flags] <table2|fig5|fig6|fig7|fig8|fig9|fig10|fig11|all>")
		os.Exit(2)
	}
	cfg := harness.Config{Divisor: *divisor, ResidualRungs: *rungs}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	exp := flag.Arg(0)
	if err := run(cfg, exp); err != nil {
		fmt.Fprintln(os.Stderr, "ipbench:", err)
		os.Exit(1)
	}
}

func run(cfg harness.Config, exp string) error {
	type experiment struct {
		name string
		fn   func(harness.Config) ([]*harness.Table, error)
	}
	one := func(f func(harness.Config) (*harness.Table, error)) func(harness.Config) ([]*harness.Table, error) {
		return func(c harness.Config) ([]*harness.Table, error) {
			t, err := f(c)
			if err != nil {
				return nil, err
			}
			return []*harness.Table{t}, nil
		}
	}
	all := []experiment{
		{"table2", one(harness.Table2)},
		{"fig5", harness.Fig5},
		{"fig6", harness.Fig6},
		{"fig7", harness.Fig7},
		{"fig8", harness.Fig8},
		{"fig9", harness.Fig9},
		{"fig10", harness.Fig10},
		{"fig11", one(harness.Fig11)},
	}
	var selected []experiment
	if exp == "all" {
		selected = all
	} else {
		for _, e := range all {
			if e.name == exp {
				selected = []experiment{e}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown experiment %q", exp)
		}
	}
	for _, e := range selected {
		start := time.Now()
		tables, err := e.fn(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		for _, t := range tables {
			if _, err := t.WriteTo(os.Stdout); err != nil {
				return err
			}
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", e.name, time.Since(start).Seconds())
	}
	return nil
}
